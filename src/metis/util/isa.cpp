#include "metis/util/isa.h"

#include <algorithm>

#include "metis/util/check.h"

namespace metis::isa {
namespace {

thread_local std::optional<Level> forced;

}  // namespace

const char* to_string(Level level) {
  constexpr const char* kNames[] = {"reference", "generic", "avx2", "avx512f"};
  return kNames[static_cast<std::size_t>(level)];
}

const std::vector<Level>& supported_levels() {
  static const std::vector<Level> levels = [] {
    std::vector<Level> found;
#if defined(__x86_64__)
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx512f")) found.push_back(Level::kAvx512f);
    if (__builtin_cpu_supports("avx2")) found.push_back(Level::kAvx2);
#endif
    found.push_back(Level::kGeneric);
    found.push_back(Level::kReference);
    return found;
  }();
  return levels;
}

Level active() {
  static const Level best = supported_levels().front();
  return forced.value_or(best);
}

ScopedLevel::ScopedLevel(Level level) : saved_(forced) {
  const auto& levels = supported_levels();
  MET_CHECK_MSG(std::find(levels.begin(), levels.end(), level) != levels.end(),
                std::string("this CPU cannot run level ") + to_string(level));
  forced = level;
}

ScopedLevel::~ScopedLevel() { forced = saved_; }

}  // namespace metis::isa
