// The one parametrised fixture for "every level equals the reference":
// a suite declared with METIS_AT_EVERY_LEVEL(Suite) runs each TEST_P once
// per level in isa::supported_levels(), with the body under
// isa::ScopedLevel(GetParam()). Test names end in the level
// (".../avx512f", ".../reference"). A reference result is computed inside
// a nested isa::ScopedLevel(isa::Level::kReference).
#pragma once

#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "metis/util/isa.h"

namespace metis::test {

class AtEveryLevel : public ::testing::TestWithParam<isa::Level> {
 protected:
  void SetUp() override { level_.emplace(GetParam()); }
  void TearDown() override { level_.reset(); }

 private:
  std::optional<isa::ScopedLevel> level_;
};

inline std::string level_name(
    const ::testing::TestParamInfo<isa::Level>& info) {
  return isa::to_string(info.param);
}

}  // namespace metis::test

#define METIS_AT_EVERY_LEVEL(Suite)                                      \
  class Suite : public ::metis::test::AtEveryLevel {};                   \
  INSTANTIATE_TEST_SUITE_P(                                              \
      Isa, Suite, ::testing::ValuesIn(::metis::isa::supported_levels()), \
      ::metis::test::level_name)
