// Teacher abstractions for Metis' local-system interpretation (§3).
//
// A Teacher is the finetuned DNN policy being interpreted; a RolloutEnv is
// the environment the teacher was trained on, extended with the
// *interpretable feature view* that the student decision tree acts on
// (e.g. Pensieve's 25-dim DNN state vs the 4 decision variables of Fig. 7).
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "metis/nn/a2c.h"
#include "metis/nn/mlp.h"

namespace metis::core {

// Teachers are shared read-only: concurrent serve jobs for one scenario
// call the same teacher's const methods at once, so those must be pure
// functions of their inputs (no mutable scratch).
class Teacher {
 public:
  virtual ~Teacher() = default;
  [[nodiscard]] virtual std::size_t action_count() const = 0;
  // Greedy policy action for a full (DNN-view) state.
  [[nodiscard]] virtual std::size_t act(
      std::span<const double> state) const = 0;
  // State value V(s) under the teacher policy.
  [[nodiscard]] virtual double value(std::span<const double> state) const = 0;

  // Batched policy+value inference for a lockstep block of episodes, the
  // collector's one teacher query per step: `states` stacks one group per
  // episode, group_sizes[i] gives episode i's row count, and each group's
  // first row is its acting state (rows 1.. are value probes, e.g. Eq. 1's
  // lookahead successors; an episode without them is a 1-row group).
  // Result i is the greedy action for group i's first row plus V for
  // every row of the group. Must match act() and value()
  // element-for-element; the default does exactly that, while DNN-backed
  // teachers override with ONE trunk forward over all rows, collapsing a
  // collection round's trunk forwards from episodes x steps to ~steps.
  // Only each group's first row is acted on, so PolicyNetTeacher runs its
  // policy head and softmax on those rows alone; the value head reads
  // every row.
  using ActValues = nn::ActValues;
  [[nodiscard]] virtual std::vector<ActValues> act_and_values_multi(
      const std::vector<std::vector<double>>& states,
      std::span<const std::size_t> group_sizes) const;
};

// Teacher backed by an actor-critic PolicyNet (Pensieve, AuTO-lRLA).
// Borrows the caller's network, which must outlive the teacher.
class PolicyNetTeacher final : public Teacher {
 public:
  explicit PolicyNetTeacher(const nn::PolicyNet* net);
  [[nodiscard]] std::size_t action_count() const override;
  [[nodiscard]] std::size_t act(std::span<const double> state) const override;
  [[nodiscard]] double value(std::span<const double> state) const override;
  [[nodiscard]] std::vector<ActValues> act_and_values_multi(
      const std::vector<std::vector<double>>& states,
      std::span<const std::size_t> group_sizes) const override;

 private:
  const nn::PolicyNet* net_;
};

// One-step lookahead successor for Eq. 1's model-based Q estimates.
struct Lookahead {
  double reward = 0.0;
  std::vector<double> next_state;  // full (DNN-view) successor state
};

// Environment view used by the trace collector. Reset/step mirror
// nn::DiscreteEnv; the extras expose (a) the interpretable features of the
// current state and (b) the one-step lookahead behind Eq. 1's Q(s,·).
class RolloutEnv {
 public:
  virtual ~RolloutEnv() = default;
  [[nodiscard]] virtual std::size_t action_count() const = 0;
  // Starts episode `episode`. The episode must be a pure function of the
  // index: any stochastic choices (trace selection, start offsets, state
  // noise) must derive from it deterministically, e.g. via
  // Rng::derive(seed, episode) — never from generator state carried over
  // from earlier episodes. This contract is what lets the lockstep
  // collector match the per-episode reference loop bit for bit.
  virtual std::vector<double> reset(std::size_t episode) = 0;
  virtual nn::StepResult step(std::size_t action) = 0;
  // Interpretable features of the current (pre-action) state.
  [[nodiscard]] virtual std::vector<double> interpretable_features()
      const = 0;
  // Per-action (reward, next state) lookahead at the current state,
  // simulated without mutating the live episode. Returns empty if the
  // environment cannot simulate lookahead; Eq. 1 weighting then degrades
  // to uniform. Environments that can peek should implement this — it is
  // what lets the collector batch all V(s') evaluations into one forward.
  [[nodiscard]] virtual std::vector<Lookahead> lookahead() const {
    return {};
  }
  // Independent copy sharing no mutable state with this env, equivalent
  // under reset(e) for every e (the episode-determinism contract above).
  // Every episode of a collection round runs on its own clone, and every
  // distill job on its own copy of the scenario's env.
  [[nodiscard]] virtual std::shared_ptr<RolloutEnv> clone() const = 0;
};

}  // namespace metis::core
