// The one instruction-set selection behind every per-ISA kernel family:
// the GEMM tiles (nn/gemm.cpp), the tanh/logistic kernels (nn/vmath.cpp)
// and the CART split scan (tree/split_kernel.cpp).
//
// Each family compiles its kernels once per level and keeps one table
// indexed by active(). The kReference entry is the family's scalar
// oracle (the naive GEMM loops, the scalar activations, cart.cpp's scalar
// split scan), and every other level must return its bits exactly. The
// CPU is probed once per process (isa.cpp holds the library's only CPU
// feature probe; metis-lint check 10 pins that), and tests force a level
// per thread with ScopedLevel. There is no environment variable or
// runtime switch.
#pragma once

#include <optional>
#include <vector>

namespace metis::isa {

enum class Level { kReference, kGeneric, kAvx2, kAvx512f };

// "reference", "generic", "avx2" or "avx512f".
[[nodiscard]] const char* to_string(Level level);

// The levels the running CPU supports, best first; kGeneric and
// kReference are always the last two.
[[nodiscard]] const std::vector<Level>& supported_levels();

// The level the kernels run at on this thread: the innermost ScopedLevel's
// if one is alive, else supported_levels().front(). One thread-local read
// plus the cached probe, so kernels may call it once per call.
[[nodiscard]] Level active();

// Forces `level` on the calling thread until destroyed, then restores the
// level it found; scopes nest. Other threads keep theirs. Throws
// std::logic_error if the CPU lacks `level`. For tests.
class ScopedLevel {
 public:
  explicit ScopedLevel(Level level);
  ~ScopedLevel();
  ScopedLevel(const ScopedLevel&) = delete;
  ScopedLevel& operator=(const ScopedLevel&) = delete;

 private:
  std::optional<Level> saved_;
};

}  // namespace metis::isa
