// Allocation-discipline regression suite for the inference hot path:
//  - lazy gradients (constants / no-grad forwards never materialize one,
//    backward stays bitwise identical to an eagerly allocated baseline),
//  - NoGradGuard no-tape forwards (same values, no parents, no closures),
//  - the per-thread tensor arena (buffers recycle inside a scope; the
//    collection loop performs ZERO fresh tensor allocations after
//    warm-up; training is bitwise identical with or without a scope),
//  - the autodiff node pool (tape nodes recycle inside a scope; a §4.2
//    mask-optimization step performs ZERO fresh tensor AND node
//    allocations after warm-up; gradients are bitwise identical with or
//    without a scope).
// Both pools are always on inside a Scope. Whole-pipeline parity with a
// thread that never recycles lives in the unscoped oracles:
// Collection.EveryCaseBitwiseIdenticalToOracleAtEveryWorkerCount
// (serve_test) and InterpretOracle.EveryModelBitwiseIdenticalToDenseLoop
// (core_test).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "metis/api/registry.h"
#include "metis/core/hypergraph_interpreter.h"
#include "metis/core/teacher.h"
#include "metis/core/trace_collector.h"
#include "metis/nn/arena.h"
#include "metis/nn/autodiff.h"
#include "metis/nn/mlp.h"
#include "metis/nn/optim.h"
#include "metis/routing/routenet.h"
#include "metis/scenarios/nfv.h"
#include "metis/util/rng.h"

namespace metis::nn {
namespace {

void expect_bitwise(const Tensor& a, const Tensor& b, const std::string& what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  // Byte-wise, not memcmp: an empty tensor's data() may be null.
  EXPECT_TRUE(std::ranges::equal(std::as_bytes(a.data()),
                                 std::as_bytes(b.data())))
      << what;
}

// ---- lazy gradients ---------------------------------------------------------

TEST(LazyGrads, ConstantsNeverAllocateGradients) {
  Var c = constant(Tensor(3, 2, 1.0));
  Var d = constant(Tensor(3, 2, 2.0));
  Var sum = mul(add(c, d), c);
  EXPECT_FALSE(c->has_grad());
  EXPECT_FALSE(d->has_grad());
  EXPECT_FALSE(sum->has_grad());
  EXPECT_FALSE(sum->requires_grad());
}

TEST(LazyGrads, ZeroGradIsANoopOnGradlessNodes) {
  Var c = constant(Tensor(2, 2, 1.0));
  c->zero_grad();
  EXPECT_FALSE(c->has_grad());
  Var w = parameter(Tensor(2, 2, 1.0));
  w->zero_grad();  // never touched by backward: still nothing to clear
  EXPECT_FALSE(w->has_grad());
}

TEST(LazyGrads, ParametersAllocateOnFirstBackwardTouch) {
  Var w = parameter(Tensor(2, 3, 0.5));
  EXPECT_FALSE(w->has_grad());
  Var loss = mean_all(square(w));
  EXPECT_FALSE(w->has_grad());  // forward alone must not materialize it
  backward(loss);
  ASSERT_TRUE(w->has_grad());
  EXPECT_EQ(w->grad().rows(), 2u);
  EXPECT_EQ(w->grad().cols(), 3u);
}

TEST(LazyGrads, BackwardBitwiseIdenticalToEagerBaseline) {
  auto run = [](bool eager) {
    metis::Rng rng(21);
    Mlp net({4, 16, 3}, Activation::kRelu, rng);
    Tensor xv(5, 4);
    Tensor yv(5, 3);
    for (double& v : xv.data()) v = rng.normal();
    for (double& v : yv.data()) v = rng.normal();
    if (eager) {
      // Old layout: every parameter's gradient pre-allocated (zeroed)
      // before backward ever runs.
      for (const auto& p : net.parameters()) (void)p->grad();
    }
    backward(mse_loss(net.forward(constant(xv)), constant(yv)));
    std::vector<Tensor> grads;
    for (const auto& p : net.parameters()) grads.push_back(p->grad());
    return grads;
  };
  const auto lazy = run(false);
  const auto eager = run(true);
  ASSERT_EQ(lazy.size(), eager.size());
  for (std::size_t i = 0; i < lazy.size(); ++i) {
    expect_bitwise(lazy[i], eager[i], "grad " + std::to_string(i));
  }
}

// ---- no-tape forwards -------------------------------------------------------

TEST(NoGradGuardTest, SkipsParentsClosuresAndGradients) {
  metis::Rng rng(22);
  Mlp net({4, 8, 2}, Activation::kTanh, rng);
  Tensor xv(3, 4, 0.25);
  Var tape_out = net.forward(constant(xv));
  EXPECT_TRUE(grad_enabled());
  Var free_out;
  {
    NoGradGuard no_grad;
    EXPECT_FALSE(grad_enabled());
    free_out = net.forward(constant(xv));
  }
  EXPECT_TRUE(grad_enabled());
  // No-tape forward: same values, but a bare value node.
  expect_bitwise(free_out->value(), tape_out->value(), "forward value");
  EXPECT_TRUE(free_out->parents().empty());
  EXPECT_FALSE(free_out->requires_grad());
  EXPECT_FALSE(free_out->has_grad());
  // The tape-mode forward still wires its parents.
  EXPECT_FALSE(tape_out->parents().empty());
}

TEST(NoGradGuardTest, NestsAndRestores) {
  NoGradGuard outer;
  EXPECT_FALSE(grad_enabled());
  {
    NoGradGuard inner;
    EXPECT_FALSE(grad_enabled());
  }
  EXPECT_FALSE(grad_enabled());  // inner exit must not re-enable
}

TEST(NoGradGuardTest, InferenceEntryPointsLeaveParametersGradFree) {
  metis::Rng rng(23);
  PolicyNet net(6, 16, 2, 4, rng);
  std::vector<std::vector<double>> states(5, std::vector<double>(6, 0.3));
  (void)net.action_probs(states[0]);
  (void)net.greedy_action(states[0]);
  (void)net.value(states[0]);
  const std::size_t groups[] = {2, 1, 2};
  (void)net.act_and_values_multi(states, groups);
  for (const auto& p : net.parameters()) {
    EXPECT_FALSE(p->has_grad());
  }
  // Training afterwards still works: the guard is strictly scoped.
  Var loss = mean_all(square(net.logits(constant(Tensor::from_rows(states)))));
  backward(loss);
  EXPECT_TRUE(net.parameters().front()->has_grad());
}

// ---- tensor arena -----------------------------------------------------------

TEST(Arena, ScopeRecyclesFreedBuffers) {
  arena::Scope scope;
  arena::reset_stats();  // counters zero, pooled blocks stay accounted
  const arena::Stats before = arena::stats();
  EXPECT_EQ(before.fresh_allocs, 0u);
  EXPECT_EQ(before.reuses, 0u);
  { Tensor t(32, 32, 1.0); }
  const arena::Stats mid = arena::stats();
  EXPECT_EQ(mid.fresh_allocs, 1u);
  EXPECT_EQ(mid.bytes_fresh, 32u * 32u * sizeof(double));
  EXPECT_EQ(mid.pooled, before.pooled + 1);
  { Tensor t(32, 32, 2.0); }  // same size: must come from the pool
  const arena::Stats after = arena::stats();
  EXPECT_EQ(after.fresh_allocs, mid.fresh_allocs);
  EXPECT_EQ(after.bytes_fresh, mid.bytes_fresh);
  EXPECT_EQ(after.reuses, mid.reuses + 1);
}

TEST(Arena, BuffersSurviveScopeExit) {
  Tensor escaped;
  {
    arena::Scope scope;
    Tensor inside(8, 8, 3.0);
    escaped = std::move(inside);  // allocated in-scope, dies after drain
  }
  EXPECT_DOUBLE_EQ(escaped(7, 7), 3.0);
}

// Deterministic env with lookahead, so collection exercises the fused
// Eq. 1 act_and_values_multi hot path. Episodes never terminate
// early, keeping every step's batch shapes constant (the precondition for
// the zero-fresh-allocation assertion).
class ToyRolloutEnv final : public core::RolloutEnv {
 public:
  explicit ToyRolloutEnv(std::size_t dim = 6) : dim_(dim) {}

  std::size_t action_count() const override { return 3; }

  std::vector<double> reset(std::size_t episode) override {
    episode_ = episode;
    t_ = 0;
    return state();
  }

  nn::StepResult step(std::size_t action) override {
    ++t_;
    nn::StepResult sr;
    sr.reward = static_cast<double>(action) * 0.125;
    sr.done = false;  // runs to max_steps
    sr.next_state = state();
    return sr;
  }

  std::vector<double> interpretable_features() const override {
    return {static_cast<double>(episode_), static_cast<double>(t_)};
  }

  std::vector<core::Lookahead> lookahead() const override {
    std::vector<core::Lookahead> la(action_count());
    for (std::size_t a = 0; a < la.size(); ++a) {
      la[a].reward = static_cast<double>(a) * 0.125;
      la[a].next_state = state();
      la[a].next_state[0] += static_cast<double>(a + 1) * 0.01;
    }
    return la;
  }

  std::shared_ptr<core::RolloutEnv> clone() const override {
    return std::make_shared<ToyRolloutEnv>(dim_);
  }

 private:
  std::vector<double> state() const {
    std::vector<double> s(dim_);
    for (std::size_t i = 0; i < dim_; ++i) {
      s[i] = 0.1 * static_cast<double>(episode_ + 1) +
             0.01 * static_cast<double>(t_) + 0.001 * static_cast<double>(i);
    }
    return s;
  }

  std::size_t dim_;
  std::size_t episode_ = 0;
  std::size_t t_ = 0;
};

core::CollectConfig collect_config() {
  core::CollectConfig cc;
  cc.episodes = 4;
  cc.max_steps = 16;
  return cc;
}

// One block over per-episode clones, on the calling thread.
TEST(Arena, CollectionZeroFreshAllocsAfterWarmup) {
  metis::Rng rng(24);
  PolicyNet net(6, 32, 2, 3, rng);
  core::PolicyNetTeacher teacher(&net);
  ToyRolloutEnv env(6);
  const core::CollectConfig cc = collect_config();

  // Outer scope: the collector's internal scope nests inside it, so the
  // pool survives between rounds and round 2 runs entirely off the free
  // list.
  arena::Scope scope;
  (void)core::collect_traces(teacher, env, cc, nullptr, 0);  // warm-up
  const arena::Stats warm = arena::stats();
  const auto samples = core::collect_traces(teacher, env, cc, nullptr, 0);
  const arena::Stats after = arena::stats();
  EXPECT_EQ(after.fresh_allocs, warm.fresh_allocs)
      << "steady-state collection must not allocate fresh tensor buffers";
  EXPECT_GT(after.reuses, warm.reuses);
  EXPECT_EQ(samples.size(), cc.episodes * cc.max_steps);
}

// ---- autodiff node pool -----------------------------------------------------

TEST(NodePool, ScopeRecyclesTapeNodes) {
  arena::Scope scope;
  arena::reset_node_stats();
  { Var v = add(constant(Tensor(2, 2, 1.0)), constant(Tensor(2, 2, 2.0))); }
  const arena::NodeStats first = arena::node_stats();
  EXPECT_EQ(first.fresh_allocs, 3u);  // two constants + the op node
  EXPECT_EQ(first.pooled, 3u);
  { Var v = add(constant(Tensor(2, 2, 3.0)), constant(Tensor(2, 2, 4.0))); }
  const arena::NodeStats second = arena::node_stats();
  EXPECT_EQ(second.fresh_allocs, first.fresh_allocs);  // all from the pool
  EXPECT_EQ(second.reuses, first.reuses + 3);
}

TEST(NodePool, PooledNodesSurviveScopeExit) {
  Var escaped;
  {
    arena::Scope scope;
    escaped = mul(constant(Tensor(3, 3, 2.0)), constant(Tensor(3, 3, 4.0)));
  }
  EXPECT_DOUBLE_EQ(escaped->value()(2, 2), 8.0);  // block outlives the drain
}

// An unscoped thread never recycles, so the unscoped run is the
// plain-operator-new baseline for the pooled one.
TEST(NodePool, BackwardBitwiseIdenticalUnderArenaScope) {
  auto run = [](bool scoped) {
    std::unique_ptr<arena::Scope> scope;
    if (scoped) scope = std::make_unique<arena::Scope>();
    metis::Rng rng(31);
    Mlp net({5, 16, 3}, Activation::kTanh, rng);
    Tensor xv(6, 5);
    Tensor yv(6, 3);
    metis::Rng data_rng(32);
    for (double& v : xv.data()) v = data_rng.normal();
    for (double& v : yv.data()) v = data_rng.normal();
    backward(mse_loss(net.forward(constant(xv)), constant(yv)));
    std::vector<Tensor> grads;
    for (const auto& p : net.parameters()) grads.push_back(p->grad());
    return grads;
  };
  const auto without = run(false);
  const auto with = run(true);
  ASSERT_EQ(without.size(), with.size());
  for (std::size_t i = 0; i < without.size(); ++i) {
    expect_bitwise(without[i], with[i], "grad " + std::to_string(i));
  }
}

// The §4.2 acceptance pin: after warm-up, one full mask-optimization step
// — forward through the model, loss assembly, backward, Adam — performs
// ZERO fresh tensor-buffer and ZERO fresh node-block allocations; every
// byte of the tape recycles through the thread's pools. NFV covers the
// dense model ops; routing adds the CSR candidate-path product, whose
// backward scratch must come from the arena too.
TEST(NodePool, MaskOptimizationStepsAreAllocationFreeAfterWarmup) {
  api::ScenarioOptions options;
  options.scale = 0.05;
  const api::GlobalSystem routing =
      api::ScenarioRegistry::global().get("routing").make_global(options);
  ASSERT_NE(dynamic_cast<const routing::RoutingMaskModel*>(
                routing.model.get()),
            nullptr);
  const scenarios::NfvPlacementModel nfv(scenarios::figure21_nfv());
  const std::vector<std::pair<const char*, const core::MaskableModel*>>
      models = {{"nfv", &nfv}, {"routing", routing.model.get()}};

  for (const auto& [name, model] : models) {
    core::InterpretConfig cfg;
    cfg.steps = 8;
    std::vector<arena::Stats> tensor_at_step;
    std::vector<arena::NodeStats> node_at_step;
    cfg.on_step = [&] {
      tensor_at_step.push_back(arena::stats());
      node_at_step.push_back(arena::node_stats());
    };

    arena::Scope scope;
    const core::InterpretResult result =
        core::find_critical_connections(*model, cfg);
    ASSERT_EQ(tensor_at_step.size(), cfg.steps) << name;
    // Step 1 warms the pools (and step 2's close still parks step 1's
    // blocks); from then on every step must run entirely off the free
    // lists.
    for (std::size_t s = 2; s < cfg.steps; ++s) {
      EXPECT_EQ(tensor_at_step[s].fresh_allocs,
                tensor_at_step[1].fresh_allocs)
          << name << ": fresh tensor allocation in mask-optimization step "
          << s + 1;
      EXPECT_EQ(node_at_step[s].fresh_allocs, node_at_step[1].fresh_allocs)
          << name << ": fresh node allocation in mask-optimization step "
          << s + 1;
      EXPECT_GT(node_at_step[s].reuses, node_at_step[s - 1].reuses) << name;
    }
    EXPECT_FALSE(result.ranked.empty()) << name;
  }
}

TEST(Arena, TrainingBitwiseIdenticalUnderArenaScope) {
  auto train = [](bool scoped) {
    std::unique_ptr<arena::Scope> scope;
    if (scoped) scope = std::make_unique<arena::Scope>();
    metis::Rng rng(26);
    Mlp net({3, 12, 2}, Activation::kTanh, rng);
    Tensor xv(6, 3);
    Tensor yv(6, 2);
    metis::Rng data_rng(27);
    for (double& v : xv.data()) v = data_rng.normal();
    for (double& v : yv.data()) v = data_rng.normal();
    Adam opt(net.parameters(), 0.01);
    for (int i = 0; i < 20; ++i) {
      Var loss = mse_loss(net.forward(constant(xv)), constant(yv));
      opt.zero_grad();
      backward(loss);
      opt.step();
    }
    std::vector<Tensor> params;
    for (const auto& p : net.parameters()) params.push_back(p->value());
    return params;
  };
  const auto without = train(false);
  const auto with = train(true);
  ASSERT_EQ(without.size(), with.size());
  for (std::size_t i = 0; i < without.size(); ++i) {
    expect_bitwise(without[i], with[i], "param " + std::to_string(i));
  }
}

}  // namespace
}  // namespace metis::nn
