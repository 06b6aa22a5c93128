// Tests for the autodiff engine, layers, optimizers, and the A2C trainer.
// Gradient correctness is checked against finite differences — the single
// most important invariant of the whole nn substrate.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "metis/nn/a2c.h"
#include "metis/nn/autodiff.h"
#include "metis/nn/gemm.h"
#include "metis/nn/layers.h"
#include "metis/nn/mlp.h"
#include "metis/nn/optim.h"
#include "metis/nn/serialize.h"
#include "metis/nn/sparse.h"
#include "metis/util/isa.h"
#include "metis/util/rng.h"

namespace metis::nn {
namespace {

// Numerically checks d(loss)/d(param) for every entry of `param` against
// the analytic gradient produced by backward(loss_fn()).
void expect_gradients_match(
    const Var& param, const std::function<Var()>& loss_fn,
    double tol = 1e-5) {
  Var loss = loss_fn();
  param->zero_grad();
  backward(loss);
  Tensor analytic = param->grad();

  const double eps = 1e-6;
  for (std::size_t r = 0; r < param->value().rows(); ++r) {
    for (std::size_t c = 0; c < param->value().cols(); ++c) {
      const double orig = param->value()(r, c);
      param->value()(r, c) = orig + eps;
      const double up = loss_fn()->value()(0, 0);
      param->value()(r, c) = orig - eps;
      const double down = loss_fn()->value()(0, 0);
      param->value()(r, c) = orig;
      const double numeric = (up - down) / (2.0 * eps);
      EXPECT_NEAR(analytic(r, c), numeric, tol)
          << "at (" << r << "," << c << ")";
    }
  }
}

TEST(Tensor, ConstructionAndIndexing) {
  Tensor t(2, 3, 1.5);
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.cols(), 3u);
  EXPECT_DOUBLE_EQ(t(1, 2), 1.5);
  t(1, 2) = -2.0;
  EXPECT_DOUBLE_EQ(t(1, 2), -2.0);
  EXPECT_THROW(t(2, 0), std::logic_error);
}

TEST(Tensor, MatmulKnownResult) {
  Tensor a(2, 3, std::vector<double>{1, 2, 3, 4, 5, 6});
  Tensor b(3, 2, std::vector<double>{7, 8, 9, 10, 11, 12});
  Tensor c = Tensor::matmul(a, b);
  EXPECT_DOUBLE_EQ(c(0, 0), 58);
  EXPECT_DOUBLE_EQ(c(0, 1), 64);
  EXPECT_DOUBLE_EQ(c(1, 0), 139);
  EXPECT_DOUBLE_EQ(c(1, 1), 154);
}

TEST(Tensor, MatmulRejectsBadShapes) {
  Tensor a(2, 3), b(2, 3);
  EXPECT_THROW(Tensor::matmul(a, b), std::logic_error);
}

TEST(Tensor, TransposeRoundTrip) {
  Tensor a(2, 3, std::vector<double>{1, 2, 3, 4, 5, 6});
  Tensor t = a.transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_DOUBLE_EQ(t(2, 1), 6);
  Tensor back = t.transposed();
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t c = 0; c < 3; ++c) EXPECT_DOUBLE_EQ(back(r, c), a(r, c));
  }
}

TEST(Tensor, OneHot) {
  Tensor t = Tensor::one_hot(2, 4);
  EXPECT_DOUBLE_EQ(t(0, 2), 1.0);
  EXPECT_DOUBLE_EQ(t(0, 0), 0.0);
  EXPECT_THROW(Tensor::one_hot(4, 4), std::logic_error);
}

TEST(Autodiff, MatmulGradients) {
  Rng rng(1);
  Tensor wv(3, 2);
  for (double& v : wv.data()) v = rng.normal();
  Var w = parameter(wv);
  Tensor xv(4, 3);
  for (double& v : xv.data()) v = rng.normal();
  Var x = constant(xv);
  expect_gradients_match(w, [&] { return sum_all(matmul(x, w)); });
}

TEST(Autodiff, BiasBroadcastGradients) {
  Rng rng(2);
  Var b = parameter(Tensor(1, 3, 0.5));
  Tensor xv(5, 3);
  for (double& v : xv.data()) v = rng.normal();
  Var x = constant(xv);
  expect_gradients_match(b, [&] { return sum_all(square(add(x, b))); });
}

TEST(Autodiff, ElementwiseChainGradients) {
  Rng rng(3);
  Tensor wv(2, 2);
  for (double& v : wv.data()) v = rng.uniform(0.2, 0.8);
  Var w = parameter(wv);
  expect_gradients_match(
      w, [&] { return sum_all(mul(sigmoid(w), tanh_op(scale(w, 2.0)))); });
}

TEST(Autodiff, SoftmaxRowsGradients) {
  Rng rng(4);
  Tensor lv(3, 4);
  for (double& v : lv.data()) v = rng.normal();
  Var logits = parameter(lv);
  Tensor tv(3, 4, 0.0);
  tv(0, 1) = tv(1, 2) = tv(2, 0) = 1.0;
  Var target = constant(tv);
  expect_gradients_match(logits, [&] {
    return scale(sum_all(mul(target, log_op(softmax_rows(logits)))), -1.0);
  });
}

TEST(Autodiff, LogSoftmaxMatchesSoftmaxLog) {
  Rng rng(5);
  Tensor lv(2, 5);
  for (double& v : lv.data()) v = rng.normal(0, 3);
  Var a = constant(lv);
  Var ls = log_softmax_rows(a);
  Var sl = log_op(softmax_rows(a));
  for (std::size_t i = 0; i < lv.size(); ++i) {
    EXPECT_NEAR(ls->value().data()[i], sl->value().data()[i], 1e-9);
  }
}

TEST(Autodiff, LogSoftmaxGradients) {
  Rng rng(6);
  Tensor lv(3, 4);
  for (double& v : lv.data()) v = rng.normal();
  Var logits = parameter(lv);
  Tensor onehot(3, 4, 0.0);
  onehot(0, 0) = onehot(1, 3) = onehot(2, 2) = 1.0;
  Var oh = constant(onehot);
  expect_gradients_match(logits, [&] {
    return scale(mean_all(rows_dot(log_softmax_rows(logits), oh)), -1.0);
  });
}

TEST(Autodiff, ConcatColsGradients) {
  Rng rng(7);
  Tensor av(3, 2), bv(3, 3);
  for (double& v : av.data()) v = rng.normal();
  for (double& v : bv.data()) v = rng.normal();
  Var a = parameter(av);
  Var b = parameter(bv);
  expect_gradients_match(
      a, [&] { return sum_all(square(concat_cols(a, b))); });
  expect_gradients_match(
      b, [&] { return sum_all(square(concat_cols(a, b))); });
}

TEST(Autodiff, KlDivergenceZeroAtEquality) {
  Tensor p(2, 3, std::vector<double>{0.2, 0.3, 0.5, 0.1, 0.6, 0.3});
  Var t = constant(p);
  Var q = constant(p);
  EXPECT_NEAR(kl_divergence_rows(t, q)->value()(0, 0), 0.0, 1e-9);
}

TEST(Autodiff, KlDivergencePositiveAndDifferentiable) {
  Tensor tv(1, 2, std::vector<double>{0.9, 0.1});
  Var target = constant(tv);
  Var logits = parameter(Tensor(1, 2, std::vector<double>{0.0, 0.0}));
  auto loss_fn = [&] {
    return kl_divergence_rows(target, softmax_rows(logits));
  };
  EXPECT_GT(loss_fn()->value()(0, 0), 0.0);
  expect_gradients_match(logits, loss_fn);
}

TEST(Autodiff, BinaryEntropyMaxAtHalf) {
  Var half = constant(Tensor(1, 1, 0.5));
  Var low = constant(Tensor(1, 1, 0.01));
  EXPECT_GT(binary_entropy_sum(half)->value()(0, 0),
            binary_entropy_sum(low)->value()(0, 0));
  EXPECT_NEAR(binary_entropy_sum(half)->value()(0, 0), std::log(2.0), 1e-9);
}

TEST(Autodiff, BinaryEntropyGradients) {
  Var w = parameter(Tensor(2, 2, std::vector<double>{0.2, 0.4, 0.6, 0.8}));
  expect_gradients_match(w, [&] { return binary_entropy_sum(w); }, 1e-4);
}

// ---- fused Figure-6 ops -----------------------------------------------------

TEST(Autodiff, GatedSigmoidMatchesCompositeBitwise) {
  Tensor sv(2, 3, std::vector<double>{1, 0, 1, 0, 1, 1});
  Tensor xv(2, 3, std::vector<double>{-1.2, 3.0, 0.4, 7.0, -0.1, 2.5});
  Var support = constant(sv);
  Var x = parameter(xv);
  const Tensor fused = gated_sigmoid(x, support)->value();
  const Tensor composite = mul(constant(sv), sigmoid(constant(xv)))->value();
  ASSERT_TRUE(fused.same_shape(composite));
  for (std::size_t i = 0; i < fused.size(); ++i) {
    EXPECT_EQ(fused.data()[i], composite.data()[i]) << i;  // bitwise
  }
  expect_gradients_match(x, [&] { return sum_all(square(
      gated_sigmoid(x, support))); });
}

TEST(Autodiff, CachedKlMatchesCompositeAndDifferentiates) {
  Tensor tv(3, 2, std::vector<double>{0.9, 0.1, 0.4, 0.6, 0.25, 0.75});
  Var target = constant(tv);
  Var log_target = log_op(target);
  Var logits = parameter(Tensor(3, 2, std::vector<double>{0.3, -0.2, 0.0,
                                                          0.1, -0.4, 0.6}));
  Var pred = softmax_rows(logits);
  const double composite = kl_divergence_rows(target, pred)->value()(0, 0);
  const double fused =
      kl_divergence_rows_cached(target, log_target, pred)->value()(0, 0);
  EXPECT_NEAR(fused, composite, 1e-12);
  expect_gradients_match(logits, [&] {
    return kl_divergence_rows_cached(target, log_target,
                                     softmax_rows(logits));
  });
}

TEST(Autodiff, CsrGatedSigmoidMatchesDenseGatingBitwise) {
  Tensor sv(2, 3, std::vector<double>{1, 0, 1, 0, 1, 1});
  const CsrMatrix support(sv);
  ASSERT_EQ(support.nnz(), 4u);
  // One logit per connection; the dense form carries junk off the support
  // that the gating must ignore.
  Var x = parameter(Tensor(1, 4, std::vector<double>{-1.2, 0.4, -0.1, 2.5}));
  Tensor dense_x(2, 3, std::vector<double>{-1.2, 9.0, 0.4, -9.0, -0.1, 2.5});
  const Tensor sparse = gated_sigmoid(x, support)->value();
  const Tensor dense = gated_sigmoid(constant(dense_x), constant(sv))->value();
  ASSERT_TRUE(sparse.same_shape(dense));
  for (std::size_t i = 0; i < dense.size(); ++i) {
    EXPECT_EQ(sparse.data()[i], dense.data()[i]) << i;  // bitwise
  }
  expect_gradients_match(x, [&] { return sum_all(square(
      gated_sigmoid(x, support))); });
}

TEST(Autodiff, MaskRegularizerMatchesCompositeAndDifferentiates) {
  Tensor sv(2, 3, std::vector<double>{1, 0, 1, 1, 1, 0});
  const CsrMatrix support(sv);
  // Values strictly inside (0, 1) on the support; exactly 0 elsewhere —
  // the shape gated_sigmoid produces.
  Tensor wv(2, 3, std::vector<double>{0.3, 0.0, 0.8, 0.55, 0.12, 0.0});
  const double c1 = 0.25 / 4.0, c2 = 1.0 / 4.0;

  double sum = 0.0, entropy = 0.0;
  Var w_const = constant(wv);
  const double fused =
      mask_regularizer(w_const, support, c1, c2, &sum, &entropy)->value()(0, 0);
  const double l1_composite = sum_all(w_const)->value()(0, 0);
  const double h_composite = binary_entropy_sum(w_const)->value()(0, 0);
  EXPECT_EQ(sum, l1_composite);          // zero entries add exactly 0
  EXPECT_NEAR(entropy, h_composite, 1e-12);
  EXPECT_NEAR(fused, c1 * l1_composite + c2 * h_composite, 1e-12);

  // Gradient through the full gating chain, as the interpreter uses it:
  // one logit per support entry.
  Var logits = parameter(Tensor(1, 4, std::vector<double>{0.4, -0.7, 0.2,
                                                          -1.5}));
  expect_gradients_match(logits, [&] {
    return mask_regularizer(gated_sigmoid(logits, support), support, c1, c2);
  }, 1e-4);
}

// ---- constant-sparse (CSR) product ------------------------------------------

void expect_bitwise(const Tensor& a, const Tensor& b, const std::string& what) {
  ASSERT_TRUE(a.same_shape(b)) << what;
  // Byte-wise, not memcmp: an empty tensor's data() may be null.
  EXPECT_TRUE(std::ranges::equal(std::as_bytes(a.data()),
                                 std::as_bytes(b.data())))
      << what;
}

// m x k with roughly `density` of its entries non-zero (any sign), plus
// the requested all-zero rows.
Tensor random_sparse(std::size_t m, std::size_t k, double density,
                     std::uint64_t seed, std::vector<std::size_t> empty_rows) {
  metis::Rng rng(seed);
  Tensor a(m, k, 0.0);
  for (std::size_t r = 0; r < m; ++r) {
    for (std::size_t c = 0; c < k; ++c) {
      if (rng.uniform() < density) a(r, c) = rng.normal(0.0, 2.0);
    }
  }
  for (std::size_t r : empty_rows) {
    for (std::size_t c = 0; c < k; ++c) a(r, c) = 0.0;
  }
  return a;
}

Tensor random_dense(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  metis::Rng rng(seed);
  Tensor t(rows, cols);
  for (double& v : t.data()) v = rng.normal(0.0, 1.5);
  return t;
}

TEST(Sparse, CsrKeepsNonZerosInRowMajorOrder) {
  Tensor dense(3, 4, std::vector<double>{0, 2, 0, -1,  //
                                         0, 0, 0, 0,   //
                                         5, 0, 0, 7});
  const CsrMatrix a(dense);
  EXPECT_EQ(a.rows(), 3u);
  EXPECT_EQ(a.cols(), 4u);
  EXPECT_EQ(a.nnz(), 4u);
  EXPECT_EQ(std::vector<std::size_t>(a.row_ptr().begin(), a.row_ptr().end()),
            (std::vector<std::size_t>{0, 2, 2, 4}));
  EXPECT_EQ(std::vector<std::size_t>(a.col_index().begin(),
                                     a.col_index().end()),
            (std::vector<std::size_t>{1, 3, 0, 3}));
  EXPECT_EQ(std::vector<std::size_t>(a.offsets().begin(), a.offsets().end()),
            (std::vector<std::size_t>{1, 3, 8, 11}));
  EXPECT_EQ(std::vector<double>(a.values().begin(), a.values().end()),
            (std::vector<double>{2, -1, 5, 7}));
  EXPECT_EQ(CsrMatrix(Tensor(2, 5, 0.0)).nnz(), 0u);
}

TEST(Sparse, ProductBitwiseIdenticalToGemmAtEveryLevel) {
  struct Case {
    const char* name;
    std::size_t m, k, n;
    double density;
    std::vector<std::size_t> empty_rows;
    bool zero_one = false;  // an incidence matrix, like RouteNet*'s
  };
  const std::vector<Case> cases = {
      {"routing-like 0/1 paths", 54, 42, 1, 0.07, {}, true},
      {"random 20% with empty rows", 17, 13, 3, 0.2, {0, 5, 16}},
      {"dense-ish", 9, 11, 5, 0.9, {}},
      {"single column", 12, 1, 4, 0.5, {3}},
      {"all zero", 6, 8, 2, 0.0, {}},
      {"wide n", 7, 9, 33, 0.3, {2}},
  };
  std::uint64_t seed = 100;
  for (const Case& c : cases) {
    Tensor dense = random_sparse(c.m, c.k, c.density, ++seed, c.empty_rows);
    if (c.zero_one) {
      for (double& v : dense.data()) v = v != 0.0 ? 1.0 : 0.0;
    }
    const CsrMatrix a(dense);
    const Tensor b = random_dense(c.k, c.n, ++seed);
    const Tensor dy = random_dense(c.m, c.n, ++seed);
    const Tensor acc0 = random_dense(c.k, c.n, ++seed);
    for (const isa::Level level : isa::supported_levels()) {
      isa::ScopedLevel scope(level);
      const std::string what =
          std::string(c.name) + " / " + isa::to_string(level);
      expect_bitwise(sparse::matmul(a, b), gemm::matmul(dense, b),
                     what + " forward");
      Tensor acc_sparse = acc0, acc_dense = acc0;
      sparse::matmul_transA_acc(a, dy, acc_sparse);
      gemm::matmul_transA_acc(dense, dy, acc_dense);
      expect_bitwise(acc_sparse, acc_dense, what + " transA_acc");

      // The autodiff node: forward and db bitwise equal to the dense op.
      Var bs = parameter(b), bd = parameter(b);
      Var ws = constant(dy);
      backward(sum_all(mul(matmul(a, bs), ws)));
      backward(sum_all(mul(matmul(constant(dense), bd), ws)));
      expect_bitwise(bs->grad(), bd->grad(), what + " autodiff db");
    }
  }
}

TEST(Sparse, ProductGradientsMatchFiniteDifferences) {
  const Tensor dense = random_sparse(8, 6, 0.35, 7, {4});
  const CsrMatrix a(dense);
  Var b = parameter(random_dense(6, 3, 8));
  expect_gradients_match(b, [&] { return sum_all(square(matmul(a, b))); });
}

TEST(Autodiff, GradientAccumulatesAcrossBackwardCalls) {
  Var w = parameter(Tensor(1, 1, 2.0));
  Var loss1 = square(w);
  backward(loss1);
  EXPECT_NEAR(w->grad()(0, 0), 4.0, 1e-12);
  Var loss2 = square(w);
  backward(loss2);
  EXPECT_NEAR(w->grad()(0, 0), 8.0, 1e-12);  // accumulated
  w->zero_grad();
  EXPECT_DOUBLE_EQ(w->grad()(0, 0), 0.0);
}

TEST(Autodiff, DiamondDependencyGradient) {
  // loss = (w + w^2) summed — parent appears on two paths.
  Var w = parameter(Tensor(1, 1, 3.0));
  Var loss = sum_all(add(w, square(w)));
  backward(loss);
  EXPECT_NEAR(w->grad()(0, 0), 1.0 + 2.0 * 3.0, 1e-12);
}

TEST(Autodiff, BackwardRequiresScalarRoot) {
  Var w = parameter(Tensor(2, 2, 1.0));
  EXPECT_THROW(backward(square(w)), std::logic_error);
}

TEST(Layers, LinearForwardShape) {
  Rng rng(8);
  Linear layer(4, 3, rng);
  Var x = constant(Tensor(5, 4, 1.0));
  Var y = layer.forward(x);
  EXPECT_EQ(y->value().rows(), 5u);
  EXPECT_EQ(y->value().cols(), 3u);
  EXPECT_THROW(layer.forward(constant(Tensor(5, 3, 1.0))),
               std::logic_error);
}

TEST(Layers, ParameterCount) {
  Rng rng(9);
  Linear layer(4, 3, rng);
  EXPECT_EQ(parameter_count(layer.parameters()), 4u * 3u + 3u);
}

TEST(Mlp, LearnsXor) {
  Rng rng(10);
  Mlp net({2, 16, 1}, Activation::kTanh, rng);
  Tensor x(4, 2, std::vector<double>{0, 0, 0, 1, 1, 0, 1, 1});
  Tensor y(4, 1, std::vector<double>{0, 1, 1, 0});
  Var xv = constant(x);
  Var yv = constant(y);
  Adam opt(net.parameters(), 0.02);
  for (int it = 0; it < 800; ++it) {
    Var loss = mse_loss(net.forward(xv), yv);
    opt.zero_grad();
    backward(loss);
    opt.step();
  }
  Var out = net.forward(xv);
  EXPECT_LT(std::abs(out->value()(0, 0)), 0.2);
  EXPECT_GT(out->value()(1, 0), 0.8);
  EXPECT_GT(out->value()(2, 0), 0.8);
  EXPECT_LT(std::abs(out->value()(3, 0)), 0.2);
}

TEST(Optim, SgdDescendsQuadratic) {
  Var w = parameter(Tensor(1, 1, 10.0));
  Sgd opt({w}, 0.1);
  for (int i = 0; i < 100; ++i) {
    Var loss = square(w);
    opt.zero_grad();
    backward(loss);
    opt.step();
  }
  EXPECT_NEAR(w->value()(0, 0), 0.0, 1e-6);
}

TEST(Optim, AdamDescendsQuadratic) {
  Var w = parameter(Tensor(1, 1, 10.0));
  Adam opt({w}, 0.5);
  for (int i = 0; i < 200; ++i) {
    Var loss = square(w);
    opt.zero_grad();
    backward(loss);
    opt.step();
  }
  EXPECT_NEAR(w->value()(0, 0), 0.0, 1e-3);
}

TEST(Optim, ClipGradNormBoundsGradient) {
  Var w = parameter(Tensor(1, 2, std::vector<double>{30.0, 40.0}));
  Sgd opt({w}, 0.1);
  Var loss = sum_all(square(w));  // grad = (60, 80), norm 100
  opt.zero_grad();
  backward(loss);
  opt.clip_grad_norm(10.0);
  const double g0 = w->grad()(0, 0);
  const double g1 = w->grad()(0, 1);
  EXPECT_NEAR(std::sqrt(g0 * g0 + g1 * g1), 10.0, 1e-9);
}

TEST(Optim, RejectsConstantParameters) {
  Var c = constant(Tensor(1, 1, 1.0));
  EXPECT_THROW(Sgd({c}, 0.1), std::logic_error);
}

TEST(PolicyNet, ProbabilitiesNormalized) {
  Rng rng(11);
  PolicyNet net(4, 8, 2, 3, rng);
  auto probs = net.action_probs(std::vector<double>{0.1, 0.2, 0.3, 0.4});
  double total = 0.0;
  for (double p : probs) {
    EXPECT_GE(p, 0.0);
    total += p;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(PolicyNet, SkipFeatureChangesHeadWidthNotApi) {
  Rng rng(12);
  PolicyNet plain(4, 8, 2, 3, rng, -1);
  PolicyNet skip(4, 8, 2, 3, rng, 2);
  EXPECT_GT(parameter_count(skip.parameters()),
            parameter_count(plain.parameters()));
  auto p = skip.action_probs(std::vector<double>{1, 2, 3, 4});
  EXPECT_EQ(p.size(), 3u);
}

// A tiny two-state environment where action 1 always pays off: A2C must
// learn to prefer it.
class BanditEnv final : public DiscreteEnv {
 public:
  std::size_t state_dim() const override { return 2; }
  std::size_t action_count() const override { return 2; }
  std::vector<double> reset(std::size_t) override {
    t_ = 0;
    return {1.0, 0.0};
  }
  StepResult step(std::size_t action) override {
    ++t_;
    StepResult sr;
    sr.reward = action == 1 ? 1.0 : 0.0;
    sr.done = t_ >= 10;
    sr.next_state = {1.0, 0.0};
    return sr;
  }

 private:
  std::size_t t_ = 0;
};

TEST(A2c, LearnsTrivialBandit) {
  Rng rng(13);
  PolicyNet net(2, 8, 1, 2, rng);
  BanditEnv env;
  A2cConfig cfg;
  cfg.episodes = 150;
  cfg.max_steps = 10;
  cfg.eval_every = 50;
  cfg.eval_episodes = 2;
  A2cResult result = train_a2c(net, env, cfg, rng);
  EXPECT_GE(result.final_mean_return, 9.0);  // near-optimal (10 max)
  ASSERT_FALSE(result.curve.empty());
  EXPECT_EQ(result.curve.front().episode, 50u);
}

TEST(A2c, RunEpisodeUsesProvidedPolicy) {
  BanditEnv env;
  const double bad = run_episode(env, 0, 10, [](auto) { return 0; });
  const double good = run_episode(env, 0, 10, [](auto) { return 1; });
  EXPECT_DOUBLE_EQ(bad, 0.0);
  EXPECT_DOUBLE_EQ(good, 10.0);
}


// ---- optimizer learning-rate control ----------------------------------------

TEST(Optim, SetLrTakesEffect) {
  // Two identical optimizers; one drops its rate 100x mid-run. Adam's
  // per-parameter normalization makes single steps rate-proportional, so
  // the slowed copy must move far less afterwards.
  Var w1 = parameter(Tensor(1, 1, std::vector<double>{0.0}));
  Var w2 = parameter(Tensor(1, 1, std::vector<double>{0.0}));
  Adam o1({w1}, 0.1);
  Adam o2({w2}, 0.1);
  EXPECT_DOUBLE_EQ(o2.lr(), 0.1);
  o2.set_lr(0.001);
  EXPECT_DOUBLE_EQ(o2.lr(), 0.001);
  w1->grad()(0, 0) = 1.0;
  w2->grad()(0, 0) = 1.0;
  o1.step();
  o2.step();
  EXPECT_LT(w1->value()(0, 0), 0.0);  // gradient descent direction
  EXPECT_NEAR(w1->value()(0, 0) / w2->value()(0, 0), 100.0, 1.0);
}

// ---- parameter serialization --------------------------------------------------

TEST(Serialize, RoundTripsExactValues) {
  metis::Rng rng(5);
  Mlp a({3, 8, 2}, Activation::kTanh, rng);
  Mlp b({3, 8, 2}, Activation::kTanh, rng);  // different init
  const std::string path = "/tmp/metis_nn_serialize_test.params";
  ASSERT_TRUE(save_parameters(a.parameters(), path));
  ASSERT_TRUE(load_parameters(b.parameters(), path));
  const auto pa = a.parameters();
  const auto pb = b.parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    const auto da = pa[i]->value().data();
    const auto db = pb[i]->value().data();
    ASSERT_EQ(da.size(), db.size());
    for (std::size_t j = 0; j < da.size(); ++j) {
      EXPECT_DOUBLE_EQ(da[j], db[j]);
    }
  }
  std::remove(path.c_str());
}

TEST(Serialize, MissingFileFails) {
  metis::Rng rng(5);
  Mlp m({2, 4, 1}, Activation::kRelu, rng);
  EXPECT_FALSE(load_parameters(m.parameters(),
                               "/tmp/metis_does_not_exist.params"));
}

TEST(Serialize, ShapeMismatchLeavesNetworkUntouched) {
  metis::Rng rng(5);
  Mlp small({2, 4, 1}, Activation::kRelu, rng);
  Mlp big({2, 8, 1}, Activation::kRelu, rng);
  const std::string path = "/tmp/metis_nn_shape_test.params";
  ASSERT_TRUE(save_parameters(small.parameters(), path));
  const double before = big.parameters()[0]->value()(0, 0);
  EXPECT_FALSE(load_parameters(big.parameters(), path));
  EXPECT_DOUBLE_EQ(big.parameters()[0]->value()(0, 0), before);
  std::remove(path.c_str());
}

TEST(Serialize, RejectsCorruptHeader) {
  const std::string path = "/tmp/metis_nn_corrupt_test.params";
  {
    std::ofstream out(path);
    out << "not-a-params-file\n";
  }
  metis::Rng rng(5);
  Mlp m({2, 4, 1}, Activation::kRelu, rng);
  EXPECT_FALSE(load_parameters(m.parameters(), path));
  // A well-formed payload without its CRC frame is rejected too.
  {
    std::ofstream out(path);
    out << render_parameters(m.parameters());
  }
  EXPECT_FALSE(load_parameters(m.parameters(), path));
  std::remove(path.c_str());
}

// ---- behavior cloning ----------------------------------------------------------

TEST(BehaviorClone, LearnsASeparableRule) {
  // Expert rule: action = (x0 > 0). BC must reproduce it.
  metis::Rng rng(9);
  PolicyNet net(2, 16, 1, 2, rng);
  std::vector<std::vector<double>> xs;
  std::vector<std::size_t> as;
  std::vector<double> gs;
  metis::Rng data_rng(10);
  for (int i = 0; i < 256; ++i) {
    const double x0 = data_rng.uniform(-1.0, 1.0);
    const double x1 = data_rng.uniform(-1.0, 1.0);
    xs.push_back({x0, x1});
    as.push_back(x0 > 0.0 ? 1u : 0u);
    gs.push_back(x0);  // arbitrary smooth value target
  }
  BcConfig cfg;
  cfg.epochs = 300;
  const double ce = behavior_clone(net, xs, as, gs, cfg);
  EXPECT_LT(ce, 0.3);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (net.greedy_action(xs[i]) == as[i]) ++correct;
  }
  EXPECT_GT(static_cast<double>(correct) / 256.0, 0.9);
}

TEST(BehaviorClone, FitsValueHeadToReturns) {
  metis::Rng rng(9);
  PolicyNet net(1, 16, 1, 2, rng);
  std::vector<std::vector<double>> xs;
  std::vector<std::size_t> as;
  std::vector<double> gs;
  for (int i = 0; i < 128; ++i) {
    const double x = static_cast<double>(i) / 64.0 - 1.0;
    xs.push_back({x});
    as.push_back(0);
    gs.push_back(3.0 * x);  // V(s) = 3x
  }
  BcConfig cfg;
  cfg.epochs = 600;
  cfg.batch_size = 0;  // full batch: deterministic fit
  behavior_clone(net, xs, as, gs, cfg);
  EXPECT_NEAR(net.value(std::vector<double>{0.5}), 1.5, 0.5);
  EXPECT_NEAR(net.value(std::vector<double>{-0.5}), -1.5, 0.5);
}

TEST(BehaviorClone, RejectsMismatchedInputs) {
  metis::Rng rng(9);
  PolicyNet net(2, 8, 1, 2, rng);
  std::vector<std::vector<double>> xs = {{0.0, 0.0}};
  std::vector<std::size_t> as = {0, 1};  // wrong length
  std::vector<double> gs = {0.0};
  EXPECT_THROW(behavior_clone(net, xs, as, gs, {}), std::logic_error);
}

// ---- model clones -----------------------------------------------------------

TEST(Clone, MlpCloneMatchesBitwiseAndTrainsIndependently) {
  metis::Rng rng(41);
  Mlp net({4, 12, 3}, Activation::kRelu, rng);
  Mlp copy = net.clone();

  // Fresh parameter nodes over bitwise-equal values.
  const auto orig_params = net.parameters();
  const auto copy_params = copy.parameters();
  ASSERT_EQ(orig_params.size(), copy_params.size());
  for (std::size_t i = 0; i < orig_params.size(); ++i) {
    EXPECT_NE(orig_params[i].get(), copy_params[i].get()) << i;
    const Tensor& a = orig_params[i]->value();
    const Tensor& b = copy_params[i]->value();
    ASSERT_TRUE(a.same_shape(b)) << i;
    EXPECT_EQ(std::memcmp(a.data().data(), b.data().data(),
                          a.size() * sizeof(double)),
              0)
        << i;
  }

  const std::vector<double> input = {0.3, -0.7, 1.1, 0.05};
  EXPECT_EQ(net.predict_row(input), copy.predict_row(input));

  // Backward through the clone leaves the original's gradients untouched,
  // and training the clone leaves the original's values untouched.
  Tensor xv(4, 4, 0.25);
  Tensor yv(4, 3, 1.0);
  Adam opt(copy.parameters(), 0.05);
  for (int i = 0; i < 3; ++i) {
    Var loss = mse_loss(copy.forward(constant(xv)), constant(yv));
    opt.zero_grad();
    backward(loss);
    opt.step();
  }
  for (const auto& p : net.parameters()) EXPECT_FALSE(p->has_grad());
  EXPECT_NE(net.predict_row(input), copy.predict_row(input));
}

TEST(Clone, PolicyNetCloneMatchesBitwise) {
  for (int skip : {-1, 2}) {
    metis::Rng rng(42);
    PolicyNet net(5, 16, 2, 4, rng, skip);
    PolicyNet copy = net.clone();
    std::vector<std::vector<double>> states(3, std::vector<double>(5));
    metis::Rng data_rng(43);
    for (auto& row : states) {
      for (auto& v : row) v = data_rng.uniform(-1.0, 1.0);
    }
    const std::size_t group[] = {states.size()};
    const auto a = net.act_and_values_multi(states, group).front();
    const auto b = copy.act_and_values_multi(states, group).front();
    EXPECT_EQ(a.action, b.action) << "skip=" << skip;
    EXPECT_EQ(a.values, b.values) << "skip=" << skip;  // bitwise doubles
    EXPECT_EQ(net.action_probs(states[0]), copy.action_probs(states[0]));
  }
}

}  // namespace
}  // namespace metis::nn

