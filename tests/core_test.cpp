// Tests for Metis' core: teacher wrappers, trace collection, Eq. 1
// resampling, the distillation pipeline, the hypergraph critical-connection
// search, and the LIME/LEMNA/k-means baselines.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "interpret_oracle.h"
#include "metis/api/registry.h"
#include "metis/core/distill.h"
#include "metis/core/hypergraph_interpreter.h"
#include "metis/core/kmeans.h"
#include "metis/core/lemna.h"
#include "metis/core/lime.h"
#include "metis/core/linreg.h"
#include "metis/nn/arena.h"
#include "metis/nn/mlp.h"
#include "metis/scenarios/nfv.h"
#include "metis/util/isa.h"
#include "metis/util/stats.h"

namespace metis::core {
namespace {

// ---- synthetic teacher/environment for distillation tests -----------------

// One scalar feature x walks in [0,1]; the "full state" duplicates it. The
// optimal action is 1 iff x > 0.5.
class LineEnv final : public RolloutEnv {
 public:
  explicit LineEnv(std::size_t steps = 40) : steps_(steps) {}

  std::size_t action_count() const override { return 2; }

  std::vector<double> reset(std::size_t episode) override {
    rng_ = metis::Rng(1000 + episode);
    t_ = 0;
    x_ = rng_.uniform();
    return state();
  }

  nn::StepResult step(std::size_t action) override {
    last_action_ = action;
    x_ = rng_.uniform();
    ++t_;
    nn::StepResult sr;
    sr.reward = (action == (x_ > 0.5 ? 1u : 0u)) ? 1.0 : 0.0;
    sr.done = t_ >= steps_;
    sr.next_state = state();
    return sr;
  }

  std::vector<double> interpretable_features() const override {
    return {x_};
  }

  // Both actions "stay" at the current state, action 1 with reward 1, so
  // Q(s,·) = {γ·V(s), 1 + γ·V(s)} and Eq. 1's V − min Q = (1 − γ)·V(s):
  // RuleTeacher's V makes states near the decision boundary weigh up to
  // 3x more, which lets tests observe Eq. 1's effect on sample weights.
  std::vector<Lookahead> lookahead() const override {
    return {{0.0, state()}, {1.0, state()}};
  }

  std::shared_ptr<RolloutEnv> clone() const override {
    return std::make_shared<LineEnv>(steps_);
  }

 private:
  std::vector<double> state() const { return {x_, 1.0 - x_}; }

  std::size_t steps_;
  metis::Rng rng_{0};
  double x_ = 0.0;
  std::size_t t_ = 0;
  std::size_t last_action_ = 0;
};

class RuleTeacher final : public Teacher {
 public:
  std::size_t action_count() const override { return 2; }
  std::size_t act(std::span<const double> state) const override {
    return state[0] > 0.5 ? 1 : 0;
  }
  // Importance: 3 at the decision boundary, 1 at the ends of the line.
  double value(std::span<const double> state) const override {
    return 1.0 + 2.0 * (1.0 - std::abs(state[0] - 0.5) * 2.0);
  }
};

TEST(Collector, TeacherDrivenCollectionLabelsWithTeacher) {
  LineEnv env;
  RuleTeacher teacher;
  CollectConfig cfg;
  cfg.episodes = 4;
  cfg.max_steps = 40;
  auto samples = collect_traces(teacher, env, cfg, nullptr, 0);
  ASSERT_GT(samples.size(), 100u);
  for (const auto& s : samples) {
    ASSERT_EQ(s.features.size(), 1u);
    EXPECT_EQ(s.action, s.features[0] > 0.5 ? 1u : 0u);
    EXPECT_GT(s.weight, 0.0);
  }
}

TEST(Collector, AdvantageWeightsReflectQValues) {
  LineEnv env;
  RuleTeacher teacher;
  CollectConfig cfg;
  cfg.episodes = 4;
  auto samples = collect_traces(teacher, env, cfg, nullptr, 0);
  // Weight = V − min Q = (1 − γ)·importance: near-boundary states get ~3x
  // weight.
  for (const auto& s : samples) {
    const double importance =
        1.0 + 2.0 * (1.0 - std::abs(s.features[0] - 0.5) * 2.0);
    EXPECT_NEAR(s.weight, (1.0 - cfg.gamma) * importance, 1e-9);
  }
}

TEST(Collector, UniformWeightsWhenDisabled) {
  LineEnv env;
  RuleTeacher teacher;
  CollectConfig cfg;
  cfg.episodes = 2;
  cfg.weight_by_advantage = false;
  auto samples = collect_traces(teacher, env, cfg, nullptr, 0);
  for (const auto& s : samples) EXPECT_DOUBLE_EQ(s.weight, 1.0);
}

TEST(Collector, StudentDrivesButTeacherLabels) {
  LineEnv env;
  RuleTeacher teacher;
  CollectConfig cfg;
  cfg.episodes = 3;
  // An adversarial student that always disagrees with the teacher.
  StudentPolicy student = [](std::span<const double> f) {
    return f[0] > 0.5 ? 0u : 1u;
  };
  auto samples = collect_traces(teacher, env, cfg, &student, 0);
  for (const auto& s : samples) {
    EXPECT_EQ(s.action, s.features[0] > 0.5 ? 1u : 0u);  // still teacher's
  }
}

TEST(Resampler, ToDatasetPreservesSamples) {
  std::vector<CollectedSample> samples = {
      {{0.2}, 0, 1.0}, {{0.8}, 1, 3.0}};
  tree::Dataset d = to_dataset(samples, {"x"});
  ASSERT_EQ(d.size(), 2u);
  EXPECT_DOUBLE_EQ(d.y[1], 1.0);
  EXPECT_DOUBLE_EQ(d.weight_of(1), 3.0);
}

TEST(Resampler, ResamplingFollowsWeights) {
  tree::Dataset d;
  d.feature_names = {"x"};
  d.add({0.0}, 0.0, 1.0);
  d.add({1.0}, 1.0, 9.0);
  metis::Rng rng(5);
  tree::Dataset r = resample_by_weight(d, 10000, rng);
  const auto freq = r.class_frequencies();
  EXPECT_NEAR(freq[1], 0.9, 0.02);
  EXPECT_TRUE(r.weight.empty());  // uniform after resampling
}

TEST(Distill, RecoversRulePolicyWithHighFidelity) {
  LineEnv env;
  RuleTeacher teacher;
  DistillConfig cfg;
  cfg.collect.episodes = 10;
  cfg.collect.max_steps = 40;
  cfg.dagger_iterations = 2;
  cfg.max_leaves = 8;
  cfg.feature_names = {"x"};
  DistillResult result = distill_policy(teacher, env, cfg);
  EXPECT_GE(result.fidelity, 0.98);
  EXPECT_LE(result.tree.leaf_count(), 8u);
  EXPECT_GT(result.samples_collected, 300u);
  // The learned threshold should sit near 0.5.
  ASSERT_FALSE(result.tree.root()->is_leaf());
  EXPECT_NEAR(result.tree.root()->threshold, 0.5, 0.05);
}

TEST(Distill, ResampleOffStillWorks) {
  LineEnv env;
  RuleTeacher teacher;
  DistillConfig cfg;
  cfg.collect.episodes = 6;
  cfg.dagger_iterations = 1;
  cfg.resample = false;
  cfg.feature_names = {"x"};
  DistillResult result = distill_policy(teacher, env, cfg);
  EXPECT_GE(result.fidelity, 0.95);
}

TEST(Distill, OversamplingRefitRaisesClassShare) {
  LineEnv env;
  RuleTeacher teacher;
  DistillConfig cfg;
  cfg.collect.episodes = 6;
  cfg.dagger_iterations = 1;
  cfg.feature_names = {"x"};
  DistillResult result = distill_policy(teacher, env, cfg);
  // Oversample class 0 to at least 70%: the refit tree still predicts both.
  tree::DecisionTree refit =
      refit_with_oversampling(result, {0}, 0.7, cfg);
  EXPECT_EQ(refit.predict(std::vector<double>{0.1}), 0.0);
  EXPECT_EQ(refit.predict(std::vector<double>{0.9}), 1.0);
}

// ---- hypergraph interpreter -------------------------------------------------

// A model over a 2-edge / 3-vertex hypergraph whose decision depends almost
// entirely on connection (edge 0, vertex 0): the decision logit is the
// masked incidence entry scaled by a large gain, others contribute noise.
class ToyMaskModel final : public MaskableModel {
 public:
  ToyMaskModel() : graph_(3, 2) {
    graph_.connect(0, 0);  // the critical connection
    graph_.connect(0, 1);
    graph_.connect(1, 1);
    graph_.connect(1, 2);
  }

  const hypergraph::Hypergraph& graph() const override { return graph_; }

  nn::Var decisions(const nn::Var& mask) const override {
    // Two-way decision per edge: logit row = [gain * W_e0, 0.1 * (W_e1+W_e2)]
    // Only W_00 materially moves the output distribution. The gain is kept
    // moderate so the softmax does not saturate (a saturated output would
    // make every connection non-critical in the Fig. 6 sense).
    nn::Tensor pick_crit(3, 1, std::vector<double>{3.0, 0.0, 0.0});
    nn::Tensor pick_rest(3, 1, std::vector<double>{0.0, 0.1, 0.1});
    nn::Var a = nn::matmul(mask, nn::constant(pick_crit));   // |E| x 1
    nn::Var b = nn::matmul(mask, nn::constant(pick_rest));   // |E| x 1
    return nn::softmax_rows(nn::concat_cols(a, b));
  }

  std::shared_ptr<MaskableModel> clone() const override {
    return std::make_shared<ToyMaskModel>(*this);
  }

 private:
  hypergraph::Hypergraph graph_;
};

TEST(HypergraphInterpreter, CriticalConnectionRankedFirst) {
  ToyMaskModel model;
  InterpretConfig cfg;
  cfg.steps = 300;
  InterpretResult result = find_critical_connections(model, cfg);
  ASSERT_EQ(result.ranked.size(), 4u);
  EXPECT_EQ(result.ranked.front().edge, 0u);
  EXPECT_EQ(result.ranked.front().vertex, 0u);
  EXPECT_GT(result.ranked.front().mask, 0.6);
  // Non-critical connections should be suppressed well below the critical.
  EXPECT_LT(result.ranked.back().mask, result.ranked.front().mask - 0.3);
}

TEST(HypergraphInterpreter, MaskZeroOutsideIncidence) {
  ToyMaskModel model;
  InterpretConfig cfg;
  cfg.steps = 50;
  InterpretResult result = find_critical_connections(model, cfg);
  EXPECT_DOUBLE_EQ(result.mask(0, 2), 0.0);  // no connection (e0, v2)
  EXPECT_DOUBLE_EQ(result.mask(1, 0), 0.0);
}

TEST(HypergraphInterpreter, Lambda1ShrinksMaskScale) {
  ToyMaskModel model;
  InterpretConfig low, high;
  low.lambda1 = 0.05;
  high.lambda1 = 2.0;
  low.steps = high.steps = 300;
  const double l1_low =
      find_critical_connections(model, low).mask_l1;
  const double l1_high =
      find_critical_connections(model, high).mask_l1;
  EXPECT_LT(l1_high, l1_low);  // Fig. 29a / 30 behaviour
}

TEST(HypergraphInterpreter, Lambda2PolarizesMasks) {
  ToyMaskModel model;
  InterpretConfig soft, hard;
  soft.lambda2 = 0.0;
  hard.lambda2 = 3.0;
  soft.steps = hard.steps = 300;
  const double h_soft = find_critical_connections(model, soft).entropy;
  const double h_hard = find_critical_connections(model, hard).entropy;
  EXPECT_LT(h_hard, h_soft);  // Fig. 29b / 30 behaviour
}

TEST(HypergraphInterpreter, RejectsNonFiniteOrNegativeSettings) {
  ToyMaskModel model;
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<std::pair<std::string, InterpretConfig>> bad = [&] {
    std::vector<std::pair<std::string, InterpretConfig>> cs;
    for (double v : {inf, -inf, nan, -0.5}) {
      InterpretConfig c;
      c.lambda1 = v;
      cs.emplace_back("lambda1=" + std::to_string(v), c);
      c = InterpretConfig{};
      c.lambda2 = v;
      cs.emplace_back("lambda2=" + std::to_string(v), c);
    }
    for (double v : {inf, -inf, nan, 0.0, -0.05}) {
      InterpretConfig c;
      c.lr = v;
      cs.emplace_back("lr=" + std::to_string(v), c);
    }
    return cs;
  }();
  for (const auto& [what, cfg] : bad) {
    try {
      (void)find_critical_connections(model, cfg);
      ADD_FAILURE() << what << " was accepted";
    } catch (const std::logic_error& e) {
      const std::string msg = e.what();
      const char* want = what.starts_with("lr")
                             ? "lr must be finite and > 0"
                             : "lambda1 and lambda2 must be finite and >= 0";
      EXPECT_NE(msg.find(want), std::string::npos) << what << ": " << msg;
    }
  }
  // The edges of the admissible range still run.
  InterpretConfig edge;
  edge.lambda1 = 0.0;
  edge.lambda2 = 0.0;
  edge.lr = 1e6;
  edge.steps = 2;
  EXPECT_EQ(find_critical_connections(model, edge).ranked.size(), 4u);
}

TEST(HypergraphInterpreter, VertexMaskSumAggregates) {
  ToyMaskModel model;
  InterpretConfig cfg;
  cfg.steps = 100;
  InterpretResult result = find_critical_connections(model, cfg);
  double manual = result.mask(0, 1) + result.mask(1, 1);
  EXPECT_NEAR(result.vertex_mask_sum(1), manual, 1e-12);
}

// A model with trainable weights, as a downstream model would have (a
// 4 -> 8 -> 4 tanh net over the mask), or its weight-frozen twin.
class NetToyModel final : public MaskableModel {
 public:
  explicit NetToyModel(bool frozen) : graph_(4, 3) {
    graph_.connect(0, 0);
    graph_.connect(0, 1);
    graph_.connect(1, 1);
    graph_.connect(1, 2);
    graph_.connect(2, 2);
    graph_.connect(2, 3);
    metis::Rng rng(23);
    nn::Mlp net({4, 8, 4}, nn::Activation::kTanh, rng);
    net_ = std::make_shared<nn::Mlp>(frozen ? net.frozen() : std::move(net));
  }

  const hypergraph::Hypergraph& graph() const override { return graph_; }
  nn::Var decisions(const nn::Var& mask) const override {
    return nn::softmax_rows(net_->forward(mask));
  }
  std::shared_ptr<MaskableModel> clone() const override {
    auto copy = std::make_shared<NetToyModel>(*this);
    copy->net_ = std::make_shared<nn::Mlp>(net_->clone());
    return copy;
  }

 private:
  hypergraph::Hypergraph graph_;
  std::shared_ptr<nn::Mlp> net_;
};

// The reference decisions Y_I are a constant target, so their forward
// must not tape: with trainable weights a taped reference graph stays
// alive for the whole search, and under a caller's arena::Scope (a serve
// worker's) every one of its nodes is a fresh node-pool block the steps
// cannot recycle. Each search runs on its own thread, so each starts
// from an empty pool; the trainable model must then take exactly the
// fresh blocks of its frozen twin, whose forwards never tape weights,
// and produce the same mask bits as the frozen twin and the dense oracle.
TEST(HypergraphInterpreter, ReferenceForwardKeepsNoGraphAlive) {
  InterpretConfig cfg;
  cfg.steps = 20;
  auto search = [&](const MaskableModel& model, std::uint64_t& fresh) {
    InterpretResult result;
    std::thread worker([&] {
      nn::arena::Scope outer;
      const auto before = nn::arena::node_stats().fresh_allocs;
      result = find_critical_connections(model, cfg);
      fresh = nn::arena::node_stats().fresh_allocs - before;
    });
    worker.join();
    return result;
  };
  const NetToyModel trainable(false), frozen(true);
  std::uint64_t fresh_trainable = 0, fresh_frozen = 0;
  const InterpretResult got = search(trainable, fresh_trainable);
  const InterpretResult twin = search(frozen, fresh_frozen);
  EXPECT_EQ(fresh_trainable, fresh_frozen);
  const InterpretResult want = oracle::find_critical_connections(trainable, cfg);
  for (const InterpretResult* other : {&twin, &want}) {
    ASSERT_TRUE(got.mask.same_shape(other->mask));
    EXPECT_EQ(std::memcmp(got.mask.data().data(), other->mask.data().data(),
                          got.mask.size() * sizeof(double)),
              0);
  }
}

// A continuous-output model (Eq. 6's MSE branch, which no built-in
// scenario exercises): per-edge two-column scores, linear in the mask.
class ContinuousToyModel final : public MaskableModel {
 public:
  ContinuousToyModel() : graph_(4, 3) {
    graph_.connect(0, 0);
    graph_.connect(0, 2);
    graph_.connect(1, 1);
    graph_.connect(1, 2);
    graph_.connect(1, 3);
    graph_.connect(2, 3);
  }

  const hypergraph::Hypergraph& graph() const override { return graph_; }
  bool discrete_output() const override { return false; }

  nn::Var decisions(const nn::Var& mask) const override {
    nn::Tensor mix(4, 2, std::vector<double>{1.5, -0.2, 0.3, 0.9,  //
                                             -0.7, 0.4, 0.05, 2.0});
    return nn::tanh_op(nn::matmul(mask, nn::constant(mix)));
  }

  std::shared_ptr<MaskableModel> clone() const override {
    return std::make_shared<ContinuousToyModel>(*this);
  }

 private:
  hypergraph::Hypergraph graph_;
};

void expect_same_bits(double a, double b, const std::string& what) {
  EXPECT_EQ(std::memcmp(&a, &b, sizeof(double)), 0)
      << what << ": " << a << " vs " << b;
}

// The sparse search (one logit per connection) against the dense
// |E| x |V| loop of tests/interpret_oracle.h: every built-in hypergraph
// model, both toys (discrete and MSE), several seeds and λ settings, and
// every ISA level the CPU supports underneath the sparse side.
TEST(InterpretOracle, EveryModelBitwiseIdenticalToDenseLoop) {
  api::ScenarioOptions options;
  options.scale = 0.05;
  std::vector<api::GlobalSystem> systems;  // keep the builds alive
  std::vector<std::pair<std::string, std::shared_ptr<MaskableModel>>> models;
  for (const char* key : {"routing", "cluster", "nfv", "cellular"}) {
    systems.push_back(
        api::ScenarioRegistry::global().get(key).make_global(options));
    models.emplace_back(key, systems.back().model);
  }
  models.emplace_back("toy", std::make_shared<ToyMaskModel>());
  models.emplace_back("toy-mse", std::make_shared<ContinuousToyModel>());

  struct Setting {
    std::uint64_t seed;
    double lambda1, lambda2;
  };
  const std::vector<Setting> settings = {
      {3, 0.25, 1.0}, {11, 0.05, 3.0}, {29, 2.0, 0.0}};
  for (const auto& [name, model] : models) {
    for (const Setting& s : settings) {
      InterpretConfig cfg;
      cfg.steps = 30;
      cfg.seed = s.seed;
      cfg.lambda1 = s.lambda1;
      cfg.lambda2 = s.lambda2;
      const InterpretResult want =
          oracle::find_critical_connections(*model, cfg);
      for (const isa::Level level : isa::supported_levels()) {
        isa::ScopedLevel scope(level);
        const std::string what = name + " seed " + std::to_string(s.seed) +
                                 " / " + isa::to_string(level);
        const InterpretResult got = find_critical_connections(*model, cfg);
        ASSERT_TRUE(got.mask.same_shape(want.mask)) << what;
        EXPECT_EQ(std::memcmp(got.mask.data().data(), want.mask.data().data(),
                              want.mask.size() * sizeof(double)),
                  0)
            << what << ": mask";
        ASSERT_EQ(got.ranked.size(), want.ranked.size()) << what;
        for (std::size_t i = 0; i < want.ranked.size(); ++i) {
          EXPECT_EQ(got.ranked[i].edge, want.ranked[i].edge) << what << i;
          EXPECT_EQ(got.ranked[i].vertex, want.ranked[i].vertex) << what << i;
          expect_same_bits(got.ranked[i].mask, want.ranked[i].mask,
                           what + " ranked " + std::to_string(i));
        }
        expect_same_bits(got.divergence, want.divergence, what + " divergence");
        expect_same_bits(got.mask_l1, want.mask_l1, what + " mask_l1");
        expect_same_bits(got.entropy, want.entropy, what + " entropy");
      }
    }
  }
}

// ---- baselines --------------------------------------------------------------

TEST(Kmeans, RecoversSeparatedClusters) {
  metis::Rng rng(3);
  std::vector<std::vector<double>> x;
  for (int i = 0; i < 100; ++i) x.push_back({rng.normal(0.0, 0.3)});
  for (int i = 0; i < 100; ++i) x.push_back({rng.normal(10.0, 0.3)});
  auto result = kmeans(x, 2, rng);
  ASSERT_EQ(result.centroids.size(), 2u);
  double lo = std::min(result.centroids[0][0], result.centroids[1][0]);
  double hi = std::max(result.centroids[0][0], result.centroids[1][0]);
  EXPECT_NEAR(lo, 0.0, 0.5);
  EXPECT_NEAR(hi, 10.0, 0.5);
  // All points in the same mode share an assignment.
  for (int i = 1; i < 100; ++i) {
    EXPECT_EQ(result.assignment[i], result.assignment[0]);
  }
}

TEST(Kmeans, InertiaDecreasesWithMoreClusters) {
  metis::Rng rng(4);
  std::vector<std::vector<double>> x;
  for (int i = 0; i < 200; ++i) x.push_back({rng.uniform(), rng.uniform()});
  metis::Rng r1(5), r2(5);
  const double i2 = kmeans(x, 2, r1).inertia;
  const double i10 = kmeans(x, 10, r2).inertia;
  EXPECT_LT(i10, i2);
}

TEST(Kmeans, ClampKToSampleCount) {
  metis::Rng rng(6);
  std::vector<std::vector<double>> x = {{1.0}, {2.0}};
  auto result = kmeans(x, 10, rng);
  EXPECT_LE(result.centroids.size(), 2u);
}

TEST(Linreg, SolveLinearKnownSystem) {
  nn::Tensor a(2, 2, std::vector<double>{2, 1, 1, 3});
  auto x = solve_linear(a, {5, 10});
  EXPECT_NEAR(x[0], 1.0, 1e-9);
  EXPECT_NEAR(x[1], 3.0, 1e-9);
}

TEST(Linreg, SolveLinearRejectsSingular) {
  nn::Tensor a(2, 2, std::vector<double>{1, 2, 2, 4});
  EXPECT_THROW(solve_linear(a, {1, 2}), std::logic_error);
}

TEST(Linreg, RecoversLinearFunction) {
  metis::Rng rng(7);
  std::vector<std::vector<double>> x;
  nn::Tensor y(200, 1);
  for (int i = 0; i < 200; ++i) {
    const double a = rng.uniform(-1, 1), b = rng.uniform(-1, 1);
    x.push_back({a, b});
    y(i, 0) = 3.0 * a - 2.0 * b + 0.5;
  }
  nn::Tensor coef = ridge_fit(x, y, 0.0);
  EXPECT_NEAR(coef(0, 0), 3.0, 1e-6);
  EXPECT_NEAR(coef(1, 0), -2.0, 1e-6);
  EXPECT_NEAR(coef(2, 0), 0.5, 1e-6);
  auto pred = ridge_predict(coef, std::vector<double>{1.0, 1.0});
  EXPECT_NEAR(pred[0], 1.5, 1e-6);
}

TEST(Linreg, WeightsFocusTheFit) {
  // Two inconsistent points; weight decides which the line passes through.
  std::vector<std::vector<double>> x = {{0.0}, {0.0}};
  nn::Tensor y(2, 1, std::vector<double>{0.0, 10.0});
  std::vector<double> w = {100.0, 1.0};
  nn::Tensor coef = ridge_fit(x, y, 0.0, w);
  auto pred = ridge_predict(coef, std::vector<double>{0.0});
  EXPECT_LT(pred[0], 1.0);
}

// Piecewise teacher: class 1 iff x > 0 (one feature); targets = one-hot.
std::pair<std::vector<std::vector<double>>, nn::Tensor> piecewise_data(
    metis::Rng& rng, int n) {
  std::vector<std::vector<double>> x;
  nn::Tensor y(n, 2, 0.0);
  for (int i = 0; i < n; ++i) {
    const double v = rng.uniform(-1, 1);
    x.push_back({v});
    y(i, v > 0 ? 1 : 0) = 1.0;
  }
  return {x, y};
}

TEST(Lime, ClusteredSurrogateFitsPiecewiseRule) {
  metis::Rng rng(8);
  auto [x, y] = piecewise_data(rng, 400);
  SurrogateConfig cfg;
  cfg.clusters = 8;
  LimeSurrogate lime = LimeSurrogate::fit(x, y, cfg);
  int hits = 0;
  for (int i = 0; i < 400; ++i) {
    const std::size_t truth = x[i][0] > 0 ? 1 : 0;
    hits += lime.predict_class(x[i]) == truth;
  }
  EXPECT_GT(hits, 360);  // >90% with enough clusters
}

TEST(Lime, SingleClusterLinearFitIsWeaker) {
  metis::Rng rng(9);
  // XOR-like teacher is not linearly separable: 1 cluster must do worse
  // than many clusters.
  std::vector<std::vector<double>> x;
  nn::Tensor y(400, 2, 0.0);
  for (int i = 0; i < 400; ++i) {
    const double a = rng.uniform(-1, 1), b = rng.uniform(-1, 1);
    x.push_back({a, b});
    y(i, (a > 0) != (b > 0) ? 1 : 0) = 1.0;
  }
  SurrogateConfig one, many;
  one.clusters = 1;
  many.clusters = 16;
  LimeSurrogate l1 = LimeSurrogate::fit(x, y, one);
  LimeSurrogate l16 = LimeSurrogate::fit(x, y, many);
  int h1 = 0, h16 = 0;
  for (int i = 0; i < 400; ++i) {
    const std::size_t truth =
        (x[i][0] > 0) != (x[i][1] > 0) ? 1 : 0;
    h1 += l1.predict_class(x[i]) == truth;
    h16 += l16.predict_class(x[i]) == truth;
  }
  EXPECT_GT(h16, h1);
}

TEST(Lemna, MixtureFitsPiecewiseRule) {
  metis::Rng rng(10);
  auto [x, y] = piecewise_data(rng, 400);
  LemnaConfig cfg;
  cfg.clusters = 8;
  LemnaSurrogate lemna = LemnaSurrogate::fit(x, y, cfg);
  int hits = 0;
  for (int i = 0; i < 400; ++i) {
    const std::size_t truth = x[i][0] > 0 ? 1 : 0;
    hits += lemna.predict_class(x[i]) == truth;
  }
  EXPECT_GT(hits, 340);
}

TEST(Lemna, PredictRowIsMixtureWeighted) {
  metis::Rng rng(11);
  auto [x, y] = piecewise_data(rng, 100);
  LemnaConfig cfg;
  cfg.clusters = 2;
  cfg.components = 2;
  LemnaSurrogate lemna = LemnaSurrogate::fit(x, y, cfg);
  auto out = lemna.predict_row(x[0]);
  EXPECT_EQ(out.size(), 2u);
  for (double v : out) EXPECT_TRUE(std::isfinite(v));
}

// ---- batched surrogate forwards ---------------------------------------------

TEST(Linreg, BatchPredictBitwiseMatchesPerRow) {
  metis::Rng rng(12);
  std::vector<std::vector<double>> x;
  nn::Tensor y(60, 3);
  for (int i = 0; i < 60; ++i) {
    x.push_back({rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2),
                 rng.uniform(-2, 2)});
    for (std::size_t m = 0; m < 3; ++m) y(i, m) = rng.normal();
  }
  const nn::Tensor coef = ridge_fit(x, y, 1e-3);
  const nn::Tensor batch = ridge_predict_batch(coef, ridge_design_matrix(x));
  ASSERT_EQ(batch.rows(), x.size());
  ASSERT_EQ(batch.cols(), 3u);
  for (std::size_t i = 0; i < x.size(); ++i) {
    const auto row = ridge_predict(coef, x[i]);
    for (std::size_t m = 0; m < 3; ++m) {
      EXPECT_EQ(batch(i, m), row[m]) << i << "," << m;  // bitwise
    }
  }
}

TEST(Lime, BatchPredictBitwiseMatchesPerRow) {
  metis::Rng rng(13);
  auto [x, y] = piecewise_data(rng, 200);
  SurrogateConfig cfg;
  cfg.clusters = 6;
  LimeSurrogate surrogate = LimeSurrogate::fit(x, y, cfg);

  const nn::Tensor batch = surrogate.predict_batch(x);
  for (std::size_t i = 0; i < x.size(); ++i) {
    const auto row = surrogate.predict_row(x[i]);
    for (std::size_t m = 0; m < row.size(); ++m) {
      EXPECT_EQ(batch(i, m), row[m]) << i;  // bitwise
    }
  }
  const auto classes = surrogate.predict_classes(x);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_EQ(classes[i], surrogate.predict_class(x[i])) << i;
  }
}

TEST(Lemna, BatchPredictBitwiseMatchesPerRow) {
  metis::Rng rng(14);
  auto [x, y] = piecewise_data(rng, 150);
  LemnaConfig cfg;
  cfg.clusters = 4;
  cfg.components = 2;
  cfg.em_iters = 8;
  LemnaSurrogate surrogate = LemnaSurrogate::fit(x, y, cfg);

  const nn::Tensor batch = surrogate.predict_batch(x);
  for (std::size_t i = 0; i < x.size(); ++i) {
    const auto row = surrogate.predict_row(x[i]);
    for (std::size_t m = 0; m < row.size(); ++m) {
      EXPECT_EQ(batch(i, m), row[m]) << i;  // bitwise
    }
  }
}

// Cloned maskable models interpret to bitwise-identical masks — the
// invariant that lets serve run one clone per concurrent job.
TEST(Interpreter, CloneInterpretsBitwiseIdentical) {
  scenarios::NfvPlacementModel model(scenarios::figure21_nfv());
  const auto clone = model.clone();
  ASSERT_NE(clone, nullptr);
  InterpretConfig cfg;
  cfg.steps = 30;
  const InterpretResult a = find_critical_connections(model, cfg);
  const InterpretResult b = find_critical_connections(*clone, cfg);
  ASSERT_EQ(a.mask.rows(), b.mask.rows());
  for (std::size_t e = 0; e < a.mask.rows(); ++e) {
    for (std::size_t v = 0; v < a.mask.cols(); ++v) {
      EXPECT_EQ(a.mask(e, v), b.mask(e, v)) << e << "," << v;  // bitwise
    }
  }
}


TEST(Distill, ResampleFlagControlsWeighting) {
  // resample=false must fit on a uniformly weighted dataset; resample=true
  // must carry the Eq.-1 weights into the final dataset.
  LineEnv env1, env2;
  RuleTeacher teacher;
  DistillConfig cfg;
  cfg.collect.episodes = 6;
  cfg.dagger_iterations = 1;
  cfg.feature_names = {"x"};

  cfg.resample = false;
  DistillResult uniform = distill_policy(teacher, env1, cfg);
  EXPECT_TRUE(uniform.train_data.weight.empty());

  cfg.resample = true;
  DistillResult weighted = distill_policy(teacher, env2, cfg);
  ASSERT_FALSE(weighted.train_data.weight.empty());
  double spread = 0.0;
  for (double w : weighted.train_data.weight) {
    spread = std::max(spread, std::abs(w - weighted.train_data.weight[0]));
  }
  EXPECT_GT(spread, 0.0) << "Eq. 1 weights should differ across states";
}

TEST(Distill, LiteralResamplingDrawsRequestedCount) {
  LineEnv env;
  RuleTeacher teacher;
  DistillConfig cfg;
  cfg.collect.episodes = 6;
  cfg.dagger_iterations = 1;
  cfg.resample = true;
  cfg.resample_size = 123;  // the literal multinomial procedure of [7]
  cfg.feature_names = {"x"};
  DistillResult result = distill_policy(teacher, env, cfg);
  EXPECT_EQ(result.train_data.size(), 123u);
  EXPECT_TRUE(result.train_data.weight.empty());  // draws are uniform
}

}  // namespace
}  // namespace metis::core

