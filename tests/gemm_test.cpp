// Parity suite for the dense kernels (nn/gemm.h): at every level the CPU
// supports (tests/every_level.h), the register-tiled kernels must be
// bitwise identical to the kReference loops over randomized shapes
// (including degenerate 1xN, Nx1, and empty operands), for the fused
// bias/transpose variants, and for whole-network forward + backward
// passes.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "every_level.h"
#include "metis/nn/autodiff.h"
#include "metis/nn/gemm.h"
#include "metis/nn/mlp.h"
#include "metis/util/isa.h"
#include "metis/util/rng.h"

namespace metis::nn {
namespace {

// Bitwise comparison — EXPECT_EQ on doubles would let -0.0 == +0.0 slip.
void expect_bitwise(const Tensor& a, const Tensor& b, const std::string& what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  // Byte-wise, not memcmp: an empty tensor's data() may be null.
  EXPECT_TRUE(std::ranges::equal(std::as_bytes(a.data()),
                                 std::as_bytes(b.data())))
      << what;
}

// Random tensor with exact zeros sprinkled in (the reference loop's
// zero-skip and relu-style activations make zeros the interesting case).
Tensor random_tensor(std::size_t rows, std::size_t cols, metis::Rng& rng) {
  Tensor t(rows, cols);
  for (double& v : t.data()) {
    v = rng.bernoulli(0.25) ? 0.0 : rng.uniform(-2.0, 2.0);
  }
  return t;
}

// f() computed by the kReference loops, whatever level the test runs at.
template <class F>
auto at_reference(F f) {
  isa::ScopedLevel reference(isa::Level::kReference);
  return f();
}

std::string describe(std::size_t m, std::size_t k, std::size_t n) {
  return std::to_string(m) + "x" + std::to_string(k) + "x" + std::to_string(n);
}

struct Shape {
  std::size_t m, k, n;
};

const std::vector<Shape>& parity_shapes() {
  static const std::vector<Shape> shapes = {
      {1, 1, 1},  {1, 7, 1},    {7, 1, 9},    {1, 64, 64}, {64, 64, 1},
      {5, 3, 4},  {17, 9, 23},  {64, 64, 64}, {33, 65, 31}, {4, 8, 8},
      {8, 16, 8}, {128, 64, 96}, {3, 0, 4},   {0, 5, 6},   {6, 5, 0},
      // Skinny shapes routed to the dedicated kernel (m < 4 or n < 8):
      // single-row inference, the 6-wide policy head, and every n in the
      // scalar tail's range — the register-accumulator path must stay
      // bitwise identical to the naive loop.
      {1, 25, 128}, {1, 128, 6}, {26, 128, 6}, {2, 64, 6}, {3, 128, 4},
      {1, 1, 8},    {4, 9, 7},   {5, 64, 3},   {2, 7, 5},  {26, 25, 2},
      {1, 16, 4},   {3, 3, 11},
      // The avx512f kernels' 4 x 16 tile: a collection step's trunk
      // (448 rows = 64 episodes x 7 rows), one exact tile, and column
      // tails that fall to the 4 x 8 tile ({12,9,40}) or to scalar and
      // streamed leftovers ({7,64,17}, {9,5,33}).
      {448, 25, 64}, {448, 64, 64}, {4, 3, 16}, {12, 9, 40}, {7, 64, 17},
      {9, 5, 33},
      // Scenario and square shapes: an Eq. 1 batch and a lockstep block
      // through the 128-wide trunk, and cubes several cache blocks wide.
      {7, 128, 128}, {26, 25, 128}, {26, 128, 128}, {128, 128, 128},
      {256, 256, 256},
      // The §4.2 routing mask step's LinkDelayNet backward (|V| = 42 links
      // through the 1-32-32-1 net): dX = dY * W^T at 42x32x32, 42x32x1
      // and 42x1x32 — 42 rows leave m % 4 = 2 rows for the 1-row tile.
      {42, 32, 32}, {42, 32, 1}, {42, 1, 32},
      // transB's packed panels: m % 4 of 1, 2 and 3 rows; n past the
      // 16- and 8-wide panels into the scalar columns (45 = 16 + 16 + 8 +
      // 5, 13 = 8 + 5, 21 = 16 + 5); k = 700 and 1024, past what a
      // fixed-size panel buffer would hold.
      {5, 11, 45}, {6, 7, 13}, {43, 19, 21}, {9, 1024, 24}, {3, 700, 45},
  };
  return shapes;
}

METIS_AT_EVERY_LEVEL(GemmParity);

TEST_P(GemmParity, MatmulBitwiseAcrossShapes) {
  metis::Rng rng(11);
  for (const auto& [m, k, n] : parity_shapes()) {
    const Tensor a = random_tensor(m, k, rng);
    const Tensor b = random_tensor(k, n, rng);
    const Tensor want = at_reference([&] { return Tensor::matmul(a, b); });
    expect_bitwise(Tensor::matmul(a, b), want, "matmul " + describe(m, k, n));
  }
}

TEST_P(GemmParity, MatmulAddBiasBitwise) {
  metis::Rng rng(12);
  for (const auto& [m, k, n] : parity_shapes()) {
    const Tensor a = random_tensor(m, k, rng);
    const Tensor b = random_tensor(k, n, rng);
    const Tensor bias = random_tensor(1, n, rng);
    // Reference: the unfused spelling on the reference loops.
    const Tensor want = at_reference([&] {
      Tensor out = Tensor::matmul(a, b);
      for (std::size_t r = 0; r < out.rows(); ++r) {
        for (std::size_t c = 0; c < out.cols(); ++c) out(r, c) += bias(0, c);
      }
      return out;
    });
    expect_bitwise(gemm::matmul_add_bias(a, b, bias), want,
                   "matmul_add_bias " + describe(m, k, n));
  }
}

TEST_P(GemmParity, TransposeAccumulateBitwise) {
  metis::Rng rng(13);
  for (const auto& [m, k, n] : parity_shapes()) {
    const Tensor a = random_tensor(m, k, rng);      // transB: a (m x k)
    const Tensor bt = random_tensor(n, k, rng);     // transB: b (n x k)
    const Tensor at = random_tensor(k, m, rng);     // transA: a (k x m)
    const Tensor b2 = random_tensor(k, n, rng);     // transA: b (k x n)
    const Tensor acc0 = random_tensor(m, n, rng);   // pre-existing gradient

    // Reference: the old backward's spelling — materialize the transpose,
    // multiply on the reference loops, add elementwise.
    Tensor ref_transB = acc0;
    Tensor ref_transA = acc0;
    at_reference([&] {
      ref_transB += Tensor::matmul(a, bt.transposed());
      ref_transA += Tensor::matmul(at.transposed(), b2);
      return 0;
    });
    const std::string shape = describe(m, k, n);
    Tensor got_b = acc0;
    gemm::matmul_transB_acc(a, bt, got_b);
    expect_bitwise(got_b, ref_transB, "matmul_transB_acc " + shape);
    Tensor got_a = acc0;
    gemm::matmul_transA_acc(at, b2, got_a);
    expect_bitwise(got_a, ref_transA, "matmul_transA_acc " + shape);
  }
}

// Outputs narrower than a register tile (n = 1 .. 7; transA runs lanes
// over rows, the others the skinny and streaming paths): all four
// products against the reference loops, with m on and off the 4- and
// 8-row lane groups and k from empty to a 512-row minibatch (the dW of a
// policy or value head).
TEST_P(GemmParity, NarrowOutputsBitwise) {
  metis::Rng rng(18);
  for (std::size_t n = 1; n <= 7; ++n) {
    for (std::size_t m : {1u, 3u, 4u, 7u, 8u, 13u, 37u, 64u, 67u}) {
      for (std::size_t k : {0u, 1u, 25u, 64u, 512u}) {
        const Tensor a = random_tensor(m, k, rng);     // a (m x k)
        const Tensor b = random_tensor(k, n, rng);     // b (k x n)
        const Tensor bias = random_tensor(1, n, rng);
        const Tensor bt = random_tensor(n, k, rng);    // transB: b (n x k)
        const Tensor at = random_tensor(k, m, rng);    // transA: a (k x m)
        const Tensor acc0 = random_tensor(m, n, rng);

        Tensor ref, ref_bias, ref_transB = acc0, ref_transA = acc0;
        at_reference([&] {
          ref = Tensor::matmul(a, b);
          ref_bias = ref;
          for (std::size_t r = 0; r < m; ++r) {
            for (std::size_t c = 0; c < n; ++c) ref_bias(r, c) += bias(0, c);
          }
          ref_transB += Tensor::matmul(a, bt.transposed());
          ref_transA += Tensor::matmul(at.transposed(), b);
          return 0;
        });
        const std::string shape = describe(m, k, n);
        expect_bitwise(Tensor::matmul(a, b), ref, "matmul " + shape);
        expect_bitwise(gemm::matmul_add_bias(a, b, bias), ref_bias,
                       "matmul_add_bias " + shape);
        Tensor got_b = acc0;
        gemm::matmul_transB_acc(a, bt, got_b);
        expect_bitwise(got_b, ref_transB, "transB_acc " + shape);
        Tensor got_a = acc0;
        gemm::matmul_transA_acc(at, b, got_a);
        expect_bitwise(got_a, ref_transA, "transA_acc " + shape);
      }
    }
  }
}

TEST_P(GemmParity, LinearOpMatchesUnfusedGraphBitwise) {
  metis::Rng rng(14);
  for (std::size_t batch : {1u, 3u, 9u}) {
    const Tensor xv = random_tensor(batch, 6, rng);
    const Tensor wv = random_tensor(6, 5, rng);
    const Tensor bv = random_tensor(1, 5, rng);

    Var x1 = parameter(xv), w1 = parameter(wv), b1 = parameter(bv);
    Var y1 = linear(x1, w1, b1);
    backward(mean_all(square(y1)));

    Var x2 = parameter(xv), w2 = parameter(wv), b2 = parameter(bv);
    Var y2 = add(matmul(x2, w2), b2);
    backward(mean_all(square(y2)));

    const std::string tag = "batch=" + std::to_string(batch);
    expect_bitwise(y1->value(), y2->value(), "linear value " + tag);
    expect_bitwise(x1->grad(), x2->grad(), "linear dx " + tag);
    expect_bitwise(w1->grad(), w2->grad(), "linear dW " + tag);
    expect_bitwise(b1->grad(), b2->grad(), "linear db " + tag);
  }
}

// Whole-network A/B: a PolicyNet forward (both heads) and a full backward
// pass must be bitwise identical to the same pass at kReference.
TEST_P(GemmParity, PolicyNetForwardAndBackwardBitwise) {
  auto run = [] {
    metis::Rng rng(15);
    PolicyNet net(/*state_dim=*/9, /*hidden_dim=*/32, /*hidden_layers=*/2,
                  /*action_count=*/5, rng);
    std::vector<std::vector<double>> states(13, std::vector<double>(9));
    for (auto& row : states) {
      for (auto& v : row) v = rng.uniform(-1.0, 1.0);
    }
    const Var x = constant(Tensor::from_rows(states));
    const Var probs = softmax_rows(net.logits(x));
    const Var values = net.values(x);
    backward(add(mean_all(square(probs)), mean_all(square(values))));
    std::vector<Tensor> out = {probs->value(), values->value()};
    for (const auto& p : net.parameters()) out.push_back(p->grad());
    return out;
  };
  const auto want = at_reference(run);
  const auto got = run();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    expect_bitwise(got[i], want[i], "tensor " + std::to_string(i));
  }
}

TEST_P(GemmParity, SkipFeatureNetAlsoBitwise) {
  auto run = [] {
    metis::Rng rng(16);
    PolicyNet net(7, 16, 2, 4, rng, /*skip_feature=*/2);
    std::vector<std::vector<double>> states(8, std::vector<double>(7));
    for (auto& row : states) {
      for (auto& v : row) v = rng.uniform(-1.0, 1.0);
    }
    NoGradGuard no_grad;
    const Var probs =
        softmax_rows(net.logits(constant(Tensor::from_rows(states))));
    return probs->value();
  };
  const Tensor want = at_reference(run);
  ASSERT_EQ(want.rows(), 8u);
  expect_bitwise(run(), want, "skip-feature action probs");
}

// The lockstep entry point: stacking several groups into one
// act_and_values_multi call must reproduce, for every group, the
// independent scalar paths — greedy_action on the group's first row and
// value() on each of its rows — bitwise, for any grouping, at every
// level, with and without the skip connection (whose column the
// policy head reads from the gathered acting rows).
TEST_P(GemmParity, ActAndValuesMultiMatchesPerGroup) {
  for (int skip_feature : {-1, 2}) {
    metis::Rng rng(17);
    PolicyNet net(6, 24, 2, 4, rng, skip_feature);
    std::vector<std::vector<std::vector<double>>> groups;
    for (std::size_t g : {1u, 5u, 2u, 7u, 1u}) {
      std::vector<std::vector<double>> rows(g, std::vector<double>(6));
      for (auto& row : rows) {
        for (auto& v : row) v = rng.uniform(-1.0, 1.0);
      }
      groups.push_back(std::move(rows));
    }
    std::vector<std::vector<double>> stacked;
    std::vector<std::size_t> sizes;
    for (const auto& g : groups) {
      sizes.push_back(g.size());
      stacked.insert(stacked.end(), g.begin(), g.end());
    }
    const auto multi = net.act_and_values_multi(stacked, sizes);
    ASSERT_EQ(multi.size(), groups.size());
    for (std::size_t i = 0; i < groups.size(); ++i) {
      const std::string tag = "skip=" + std::to_string(skip_feature) +
                              " group " + std::to_string(i);
      std::vector<double> values;
      for (const auto& row : groups[i]) values.push_back(net.value(row));
      EXPECT_EQ(multi[i].action, net.greedy_action(groups[i][0])) << tag;
      ASSERT_EQ(multi[i].values.size(), values.size()) << tag;
      EXPECT_EQ(std::memcmp(multi[i].values.data(), values.data(),
                            values.size() * sizeof(double)),
                0)
          << tag;
    }
  }
}

}  // namespace
}  // namespace metis::nn
