// Tests for the public facade: scenario registry lookup, Interpreter
// distillation and hypergraph interpretation, and the batched teacher
// path's bitwise equivalence with the scalar path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "metis/abr/distill_adapter.h"
#include "metis/abr/env.h"
#include "metis/abr/scenario.h"
#include "metis/abr/trace_gen.h"
#include "metis/api/interpreter.h"
#include "metis/api/mimic.h"
#include "metis/api/registry.h"
#include "metis/core/trace_collector.h"
#include "metis/nn/mlp.h"

namespace metis {
namespace {

// ---- registry ---------------------------------------------------------------

TEST(Registry, GlobalHasAllSixFamilies) {
  auto& reg = api::ScenarioRegistry::global();
  const std::vector<std::string> expected = {"abr",     "cellular", "cluster",
                                             "flowsched", "nfv",    "routing"};
  EXPECT_EQ(reg.keys(), expected);
  for (const auto& k : expected) {
    ASSERT_TRUE(reg.contains(k)) << k;
    EXPECT_EQ(reg.get(k).key(), k);
    EXPECT_FALSE(reg.get(k).description().empty());
    // The hypergraph families (routing and Appendix B) are interpreted
    // only (a distill of theirs would memorise a table over unit indices).
    const bool hypergraph = k == "cellular" || k == "cluster" || k == "nfv" ||
                            k == "routing";
    EXPECT_EQ(reg.get(k).has_local(), !hypergraph) << k;
    EXPECT_EQ(reg.get(k).has_global(), hypergraph) << k;
  }
}

TEST(Registry, AliasesResolveToPrimaryScenario) {
  auto& reg = api::ScenarioRegistry::global();
  EXPECT_EQ(reg.get("pensieve").key(), "abr");
  EXPECT_EQ(reg.get("auto").key(), "flowsched");
  EXPECT_EQ(reg.get("routenet").key(), "routing");
}

TEST(Registry, UnknownKeyFindsNullAndGetThrows) {
  auto& reg = api::ScenarioRegistry::global();
  EXPECT_EQ(reg.find("no-such-scenario"), nullptr);
  EXPECT_THROW((void)reg.get("no-such-scenario"), std::invalid_argument);
  try {
    (void)reg.get("no-such-scenario");
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("abr"), std::string::npos)
        << "error should list the known keys";
  }
}

TEST(Registry, RejectsDuplicateKeys) {
  api::ScenarioRegistry reg;
  api::register_builtin_scenarios(reg);
  EXPECT_EQ(reg.size(), 6u);
  EXPECT_THROW(api::register_builtin_scenarios(reg), std::logic_error);
}

// A scenario whose alias repeats its own key must be rejected too.
class SelfAliasedScenario final : public api::Scenario {
 public:
  std::string key() const override { return "foo"; }
  std::vector<std::string> aliases() const override { return {"foo"}; }
  std::string description() const override { return "broken"; }
};

TEST(Registry, RejectsSelfDuplicateAlias) {
  api::ScenarioRegistry reg;
  EXPECT_THROW(reg.add(std::make_unique<SelfAliasedScenario>()),
               std::logic_error);
}

// ---- facade: custom scenario ------------------------------------------------

// The synthetic rule teacher/environment of core_test, packaged as a
// Scenario: action 1 iff x > 0.5, states drawn uniformly.
class LineEnv final : public core::RolloutEnv {
 public:
  std::size_t action_count() const override { return 2; }
  std::vector<double> reset(std::size_t episode) override {
    rng_ = metis::Rng(1000 + episode);
    t_ = 0;
    x_ = rng_.uniform();
    return {x_, 1.0 - x_};
  }
  nn::StepResult step(std::size_t) override {
    x_ = rng_.uniform();
    ++t_;
    nn::StepResult sr;
    sr.done = t_ >= 40;
    sr.next_state = {x_, 1.0 - x_};
    return sr;
  }
  std::vector<double> interpretable_features() const override { return {x_}; }
  std::shared_ptr<core::RolloutEnv> clone() const override {
    return std::make_shared<LineEnv>();
  }

 private:
  metis::Rng rng_{0};
  double x_ = 0.0;
  std::size_t t_ = 0;
};

class RuleTeacher final : public core::Teacher {
 public:
  std::size_t action_count() const override { return 2; }
  std::size_t act(std::span<const double> state) const override {
    return state[0] > 0.5 ? 1 : 0;
  }
  double value(std::span<const double>) const override { return 0.0; }
};

class LineScenario final : public api::Scenario {
 public:
  std::string key() const override { return "line"; }
  std::string description() const override { return "synthetic rule policy"; }
  api::LocalSystem make_local(const api::ScenarioOptions&) const override {
    api::LocalSystem sys;
    sys.teacher = std::make_shared<RuleTeacher>();
    sys.env = std::make_shared<LineEnv>();
    sys.distill_defaults.collect.episodes = 8;
    sys.distill_defaults.collect.max_steps = 40;
    sys.distill_defaults.dagger_iterations = 2;
    sys.distill_defaults.max_leaves = 8;
    sys.distill_defaults.feature_names = {"x"};
    return sys;
  }
};

TEST(Interpreter, DistillsCustomScenarioWithOverrides) {
  api::ScenarioRegistry reg;
  reg.add(std::make_unique<LineScenario>());
  Interpreter metis(&reg);

  api::DistillOverrides o;
  o.max_leaves = 4;
  auto run = metis.distill("line", o);
  EXPECT_EQ(run.scenario, "line");
  EXPECT_GE(run.result.fidelity, 0.95);
  EXPECT_LE(run.result.tree.leaf_count(), 4u);
  EXPECT_EQ(run.config.max_leaves, 4u);
  ASSERT_FALSE(run.result.tree.root()->is_leaf());
  EXPECT_NEAR(run.result.tree.root()->threshold, 0.5, 0.05);

  // Held-out fidelity of a near-perfect student should also be high.
  EXPECT_GE(metis.evaluate_fidelity(run, 4), 0.9);
}

TEST(Interpreter, CachesLocalSystemsAcrossDistillCalls) {
  api::ScenarioRegistry reg;
  reg.add(std::make_unique<LineScenario>());
  Interpreter metis(&reg);
  auto a = metis.distill("line");
  auto b = metis.distill("line");
  EXPECT_EQ(a.system.teacher.get(), b.system.teacher.get());
  metis.clear_cache();
  auto c = metis.distill("line");
  EXPECT_NE(a.system.teacher.get(), c.system.teacher.get());
}

TEST(Interpreter, UnknownScenarioThrows) {
  Interpreter metis;
  EXPECT_THROW((void)metis.distill("no-such-scenario"),
               std::invalid_argument);
}

// ---- facade: built-in scenarios at smoke scale ------------------------------

TEST(Interpreter, DistillsAbrScenarioTiny) {
  api::ScenarioOptions opts;
  opts.scale = 0.05;  // smoke-scale teacher: BC-only, tiny corpus
  opts.seed = 9;
  Interpreter metis(opts);

  api::DistillOverrides o;
  o.episodes = 4;
  o.max_steps = 20;
  o.dagger_iterations = 1;
  o.max_leaves = 8;
  auto run = metis.distill("abr", o);
  EXPECT_EQ(run.scenario, "abr");
  EXPECT_GT(run.result.samples_collected, 40u);
  EXPECT_GT(run.result.fidelity, 0.5);  // tree mimics even a weak teacher
  // The facade must wire the ABR interpretable view (enriched Fig. 7
  // decision variables) through to the fitted tree.
  EXPECT_EQ(run.result.tree.feature_names(), abr::tree_feature_names());
  // The backing context is reachable for deeper walkthroughs.
  EXPECT_EQ(abr::abr_context(run.system)->env.action_count(), 6u);
}

// Paper-result gate for the distilled ABR tree (§3, Appendix E): at a
// small seeded scale its fidelity to the teacher stays above a floor.
// Floors are the values measured before the CART fit took its explicit
// (value, row index) tie order, less a margin; they are thresholds, not
// goldens, so a legitimate change to the fit's arithmetic still passes.
TEST(Interpreter, DistilledAbrTreeFidelityStaysAboveFloor) {
  struct Case {
    std::uint64_t seed;
    double training_floor;  // measured 0.908 / 0.879
    double held_out_floor;  // measured 0.883 / 0.800
  };
  for (const Case& c : {Case{9, 0.87, 0.83}, Case{11, 0.84, 0.75}}) {
    api::ScenarioOptions opts;
    opts.scale = 0.05;
    opts.seed = c.seed;
    Interpreter metis(opts);
    api::DistillOverrides o;
    o.episodes = 16;
    o.max_steps = 40;
    o.dagger_iterations = 2;
    o.max_leaves = 28;
    auto run = metis.distill("abr", o);
    EXPECT_LE(run.result.tree.leaf_count(), 28u) << c.seed;
    EXPECT_GE(run.result.fidelity, c.training_floor) << c.seed;
    EXPECT_GE(metis.evaluate_fidelity(run, 4), c.held_out_floor) << c.seed;
  }
}

// The hypergraph scenarios (routing and Appendix B) offer no
// distillation: a tree over their decision units would be a fixed table
// over unit indices at 100% fidelity. A distill request fails with the
// scenario's own error.
TEST(Interpreter, HypergraphOnlyScenariosRejectDistill) {
  api::ScenarioOptions opts;
  opts.scale = 0.5;
  Interpreter metis(opts);
  for (const char* key : {"cluster", "nfv", "cellular", "routing"}) {
    try {
      (void)metis.distill(key);
      ADD_FAILURE() << key << " distilled";
    } catch (const std::logic_error& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "does not support local-system distillation"),
                std::string::npos)
          << key << ": " << e.what();
    }
  }
}

TEST(Interpreter, InterpretsNfvHypergraph) {
  Interpreter metis;
  api::InterpretOverrides o;
  o.steps = 120;
  auto run = metis.interpret_hypergraph("nfv", o);
  EXPECT_EQ(run.scenario, "nfv");
  EXPECT_EQ(run.config.steps, 120u);
  // Global systems are cached per key, like local systems.
  auto again = metis.interpret_hypergraph("nfv", o);
  EXPECT_EQ(run.system.model.get(), again.system.model.get());
  ASSERT_EQ(run.result.ranked.size(),
            run.system.model->graph().connection_count());
  // Ranked order is descending by mask.
  for (std::size_t i = 1; i < run.result.ranked.size(); ++i) {
    EXPECT_GE(run.result.ranked[i - 1].mask, run.result.ranked[i].mask);
  }
}

TEST(Interpreter, LocalOnlyScenarioRejectsHypergraph) {
  Interpreter metis;
  EXPECT_THROW((void)metis.interpret_hypergraph("abr"), std::logic_error);
}

// ---- batched teacher inference ----------------------------------------------

std::vector<std::vector<double>> random_states(std::size_t n, std::size_t dim,
                                               metis::Rng& rng) {
  std::vector<std::vector<double>> states(n);
  for (auto& s : states) {
    s.resize(dim);
    for (auto& v : s) v = rng.uniform(-1.0, 1.0);
  }
  return states;
}

TEST(BatchedTeacher, BatchMatchesScalarBitwise) {
  metis::Rng rng(33);
  nn::PolicyNet net(/*state_dim=*/7, /*hidden_dim=*/16, /*hidden_layers=*/2,
                    /*action_count=*/5, rng);
  core::PolicyNetTeacher teacher(&net);
  const auto states = random_states(17, 7, rng);

  // One single-row group per state: its action and its value.
  const std::vector<std::size_t> ones(states.size(), 1);
  const auto fused = teacher.act_and_values_multi(states, ones);
  ASSERT_EQ(fused.size(), states.size());
  for (std::size_t i = 0; i < states.size(); ++i) {
    EXPECT_EQ(fused[i].action, teacher.act(states[i])) << i;
    ASSERT_EQ(fused[i].values.size(), 1u) << i;
    EXPECT_EQ(fused[i].values[0], teacher.value(states[i])) << i;  // bitwise
  }
}

TEST(BatchedTeacher, SkipFeatureStructureAlsoMatches) {
  metis::Rng rng(34);
  nn::PolicyNet net(6, 12, 2, 4, rng, /*skip_feature=*/2);
  core::PolicyNetTeacher teacher(&net);
  const auto states = random_states(9, 6, rng);
  const std::vector<std::size_t> ones(states.size(), 1);
  const auto fused = teacher.act_and_values_multi(states, ones);
  ASSERT_EQ(fused.size(), states.size());
  for (std::size_t i = 0; i < states.size(); ++i) {
    EXPECT_EQ(fused[i].action, teacher.act(states[i])) << i;
    EXPECT_EQ(fused[i].values[0], teacher.value(states[i])) << i;  // bitwise
  }
}

TEST(BatchedTeacher, EmptyBatchIsEmpty) {
  metis::Rng rng(35);
  nn::PolicyNet net(3, 8, 1, 2, rng);
  core::PolicyNetTeacher teacher(&net);
  EXPECT_TRUE(teacher.act_and_values_multi({}, {}).empty());
}

// ---- mimic adapters ---------------------------------------------------------

TEST(Mimic, ReplayEnvWalksEveryRowOncePerEpisode) {
  std::vector<std::vector<double>> rows = {{0.0}, {1.0}, {2.0}, {3.0}};
  api::ReplayRolloutEnv env(rows, rows, 2);
  std::vector<double> seen;
  auto state = env.reset(1);  // start at row 1
  for (std::size_t t = 0; t < 16; ++t) {
    seen.push_back(env.interpretable_features()[0]);
    auto sr = env.step(0);
    if (sr.done) break;
    state = sr.next_state;
  }
  EXPECT_EQ(seen, (std::vector<double>{1.0, 2.0, 3.0, 0.0}));
}

}  // namespace
}  // namespace metis
