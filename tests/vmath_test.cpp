// Tests for nn/vmath.h: the entry points at every level the CPU supports
// against the scalar reference, bit for bit, and the reference against
// the accuracy contract (long-double tanhl and 1 / (1 + expl(-x)) as the
// exact values).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <span>
#include <vector>

#include "every_level.h"
#include "metis/nn/vmath.h"
#include "metis/util/rng.h"

namespace metis::nn::vmath {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kLn2 = 0.693147180559945309417232121458176568;

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// Both neighbours of v and v itself.
void push_around(std::vector<double>& xs, double v) {
  xs.push_back(std::nextafter(v, -kInf));
  xs.push_back(v);
  xs.push_back(std::nextafter(v, kInf));
}

// Values where the kernels change regime, with both signs: zeros,
// subnormals, the extremes, NaNs, tanh's and logistic's range-reduction
// boundaries (t = (k + 1/2)·ln 2 for t = 2|x| and t = |x|), the clamps
// (2|x| = 44, |x| = 746), and where results saturate or go subnormal.
std::vector<double> special_inputs() {
  std::vector<double> xs = {0.0,
                            std::numeric_limits<double>::denorm_min(),
                            0x0.fffffffffffffp-1022,
                            std::numeric_limits<double>::min(),
                            std::numeric_limits<double>::max(),
                            kInf,
                            std::numeric_limits<double>::quiet_NaN(),
                            std::nan("0x5a5"),
                            1e-300,
                            1e-8};
  for (int k = 0; k <= 64; ++k) push_around(xs, (k + 0.5) * kLn2 / 2.0);
  for (int k = 0; k <= 1077; ++k) push_around(xs, (k + 0.5) * kLn2);
  for (double v :
       {19.0, 19.06, 22.0, 36.7, 37.5, 708.4, 709.8, 745.13, 746.0}) {
    push_around(xs, v);
  }
  const std::size_t n = xs.size();
  for (std::size_t i = 0; i < n; ++i) xs.push_back(-xs[i]);
  return xs;
}

// 10^5 random inputs, |x| log-uniform over [1e-300, 40] with a random
// sign, 10^5 uniform over [-4, 4] (where the largest errors live), then
// every special input.
std::vector<double> test_inputs() {
  metis::Rng rng(2024);
  std::vector<double> xs;
  const double lo = std::log(1e-300), hi = std::log(40.0);
  for (int i = 0; i < 100000; ++i) {
    const double m = std::exp(rng.uniform(lo, hi));
    xs.push_back(rng.uniform() < 0.5 ? -m : m);
  }
  for (int i = 0; i < 100000; ++i) xs.push_back(rng.uniform(-4.0, 4.0));
  for (double v : special_inputs()) xs.push_back(v);
  return xs;
}

// |y - exact| in units of the last place of exact's binade (subnormal
// spacing below DBL_MIN).
double ulp_error(double y, long double exact) {
  const double d = std::fabs(static_cast<double>(exact));
  long double ulp = std::ldexp(1.0L, -1074);
  if (d >= std::numeric_limits<double>::min()) {
    int e = 0;
    (void)std::frexp(d, &e);
    ulp = std::ldexp(1.0L, e - 53);
  }
  return static_cast<double>(std::fabs(static_cast<long double>(y) - exact) /
                             ulp);
}

constexpr double kMaxUlp = 3.0;

METIS_AT_EVERY_LEVEL(VmathParity);

// The entry points return the scalar reference's bits at every level:
// over the whole input table (whole vectors plus one tail), and over
// every length 0..17 at 64 random start positions each, out of place and
// in place.
TEST_P(VmathParity, EntryPointsBitwiseEqualScalarReference) {
  const std::vector<double> xs = test_inputs();
  std::vector<double> want_tanh(xs.size()), want_logistic(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    want_tanh[i] = detail::tanh_reference(xs[i]);
    want_logistic[i] = detail::logistic_reference(xs[i]);
  }
  struct Fn {
    const char* name;
    void (*entry)(std::span<const double>, std::span<double>);
    const std::vector<double>* want;
  };
  const Fn fns[] = {{"tanh", &tanh, &want_tanh},
                    {"logistic", &logistic, &want_logistic}};
  for (const Fn& fn : fns) {
    std::vector<double> got(xs.size());
    fn.entry(xs, got);
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < xs.size(); ++i) {
      if (!same_bits(got[i], (*fn.want)[i]) && ++mismatches <= 5) {
        ADD_FAILURE() << fn.name << " x = " << std::hexfloat << xs[i] << ": "
                      << got[i] << " vs " << (*fn.want)[i];
      }
    }
    EXPECT_EQ(mismatches, 0u) << fn.name;

    // Short runs: each starts at a random table position, so the lanes
    // and the scalar tail meet every kind of input.
    metis::Rng rng(7);
    for (std::size_t n = 0; n <= 17; ++n) {
      for (std::size_t rep = 0; rep < 64; ++rep) {
        const auto at = static_cast<std::size_t>(
            rng.uniform() * static_cast<double>(xs.size() - n));
        std::vector<double> out(n + 1, -7.0);  // a guard past the end
        fn.entry({xs.data() + at, n}, {out.data(), n});
        std::vector<double> in_place(xs.begin() + at, xs.begin() + at + n);
        fn.entry(in_place, in_place);
        for (std::size_t i = 0; i < n; ++i) {
          EXPECT_TRUE(same_bits(out[i], (*fn.want)[at + i]))
              << fn.name << " tail " << n << " lane " << i;
          EXPECT_TRUE(same_bits(in_place[i], (*fn.want)[at + i]))
              << fn.name << " in place, tail " << n << " lane " << i;
        }
        EXPECT_EQ(out[n], -7.0) << fn.name << " wrote past n = " << n;
      }
    }
  }
}

TEST(Vmath, TanhMeetsAccuracyContract) {
  double worst = 0.0, worst_x = 0.0;
  for (double x : test_inputs()) {
    const double y = detail::tanh_reference(x);
    if (std::isnan(x)) {
      EXPECT_TRUE(same_bits(y, x)) << "NaN must pass through unchanged";
      continue;
    }
    EXPECT_TRUE(same_bits(detail::tanh_reference(-x), -y))
        << "tanh is not odd at " << std::hexfloat << x;
    EXPECT_LE(std::fabs(y), 1.0) << std::hexfloat << x;
    const double err = ulp_error(y, tanhl(static_cast<long double>(x)));
    if (err > worst) {
      worst = err;
      worst_x = x;
    }
  }
  std::printf("[ vmath ] tanh: max error %.3f ulp at %a\n", worst, worst_x);
  EXPECT_LE(worst, kMaxUlp) << std::hexfloat << worst_x;
  EXPECT_EQ(detail::tanh_reference(kInf), 1.0);
  EXPECT_EQ(detail::tanh_reference(-kInf), -1.0);
  EXPECT_TRUE(same_bits(detail::tanh_reference(0.0), 0.0));
  EXPECT_TRUE(same_bits(detail::tanh_reference(-0.0), -0.0));
}

TEST(Vmath, LogisticMeetsAccuracyContract) {
  // The table plus the range where the result is subnormal or tiny.
  std::vector<double> xs = test_inputs();
  metis::Rng rng(99);
  for (int i = 0; i < 20000; ++i) xs.push_back(rng.uniform(-760.0, -30.0));
  double worst = 0.0, worst_x = 0.0;
  for (double x : xs) {
    const double y = detail::logistic_reference(x);
    if (std::isnan(x)) {
      EXPECT_TRUE(same_bits(y, x)) << "NaN must pass through unchanged";
      continue;
    }
    EXPECT_GE(y, 0.0) << std::hexfloat << x;
    EXPECT_LE(y, 1.0) << std::hexfloat << x;
    const long double exact =
        1.0L / (1.0L + expl(-static_cast<long double>(x)));
    const double err = ulp_error(y, exact);
    if (err > worst) {
      worst = err;
      worst_x = x;
    }
  }
  std::printf("[ vmath ] logistic: max error %.3f ulp at %a\n", worst,
              worst_x);
  EXPECT_LE(worst, kMaxUlp) << std::hexfloat << worst_x;
  EXPECT_EQ(detail::logistic_reference(kInf), 1.0);
  EXPECT_EQ(detail::logistic_reference(-kInf), 0.0);
  EXPECT_EQ(detail::logistic_reference(0.0), 0.5);
  EXPECT_EQ(detail::logistic_reference(-0.0), 0.5);
}

}  // namespace
}  // namespace metis::nn::vmath
