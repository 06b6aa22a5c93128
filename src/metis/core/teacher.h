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

class Teacher {
 public:
  virtual ~Teacher() = default;
  [[nodiscard]] virtual std::size_t action_count() const = 0;
  // Greedy policy action for a full (DNN-view) state.
  [[nodiscard]] virtual std::size_t act(
      std::span<const double> state) const = 0;
  // State value V(s) under the teacher policy.
  [[nodiscard]] virtual double value(std::span<const double> state) const = 0;
  // Action distribution π(·|s) — used by fidelity metrics and baselines.
  [[nodiscard]] virtual std::vector<double> action_probs(
      std::span<const double> state) const = 0;

  // Batched inference over N states. Results must match the scalar calls
  // element-for-element; the defaults loop, while DNN-backed teachers
  // override with a single matrix-level forward pass (the hot path of
  // trace collection and Eq. 1 advantage computation).
  [[nodiscard]] virtual std::vector<std::size_t> act_batch(
      const std::vector<std::vector<double>>& states) const;
  [[nodiscard]] virtual std::vector<double> value_batch(
      const std::vector<std::vector<double>>& states) const;
  [[nodiscard]] virtual std::vector<std::vector<double>> action_probs_batch(
      const std::vector<std::vector<double>>& states) const;

  // Fused policy+value inference over a pre-assembled batch whose row 0
  // is the acting state (rows 1.. are value probes, e.g. Eq. 1's
  // lookahead successors): the greedy action for row 0 plus V for every
  // row. Must match act(states[0]) followed by value_batch(states)
  // element-for-element; the default does exactly that, while DNN-backed
  // teachers override with a single trunk forward shared between the two
  // heads — this removes the last scalar per-step forward from the
  // trace-collection hot path. Callers build the batch once; the batch
  // shape avoids re-copying probe rows per step.
  struct ActValues {
    std::size_t action = 0;
    std::vector<double> values;  // values[i] = V(states[i])
  };
  [[nodiscard]] virtual ActValues act_and_values(
      const std::vector<std::vector<double>>& states) const;

  // Cross-episode lockstep variant of act_and_values: `states` stacks the
  // per-episode batches of a whole lockstep block, and group_sizes[i]
  // gives episode i's row count (first row = its acting state). Result i
  // must match act_and_values(rows of group i) element-for-element — the
  // default slices and loops, while DNN-backed teachers override with ONE
  // trunk forward over all rows, collapsing a collection round's trunk
  // forwards from episodes x steps to ~steps. Only each group's first row
  // is acted on, so PolicyNetTeacher runs its policy head and softmax on
  // those rows alone; the value head reads every row.
  [[nodiscard]] virtual std::vector<ActValues> act_and_values_multi(
      const std::vector<std::vector<double>>& states,
      std::span<const std::size_t> group_sizes) const;

  // Independent copy sharing no mutable state with this teacher and
  // agreeing with it on every inference call bit-for-bit (same weights,
  // fresh autodiff nodes). Concurrent serve jobs give each distill its own
  // clone so same-key jobs never contend on one network's tape/arena;
  // teachers returning nullptr (the default) are shared read-only instead.
  [[nodiscard]] virtual std::shared_ptr<Teacher> clone() const {
    return nullptr;
  }
};

// Teacher backed by an actor-critic PolicyNet (Pensieve, AuTO-lRLA).
class PolicyNetTeacher final : public Teacher {
 public:
  explicit PolicyNetTeacher(const nn::PolicyNet* net);
  [[nodiscard]] std::size_t action_count() const override;
  [[nodiscard]] std::size_t act(std::span<const double> state) const override;
  [[nodiscard]] double value(std::span<const double> state) const override;
  [[nodiscard]] std::vector<double> action_probs(
      std::span<const double> state) const override;
  [[nodiscard]] std::vector<std::size_t> act_batch(
      const std::vector<std::vector<double>>& states) const override;
  [[nodiscard]] std::vector<double> value_batch(
      const std::vector<std::vector<double>>& states) const override;
  [[nodiscard]] std::vector<std::vector<double>> action_probs_batch(
      const std::vector<std::vector<double>>& states) const override;
  [[nodiscard]] ActValues act_and_values(
      const std::vector<std::vector<double>>& states) const override;
  [[nodiscard]] std::vector<ActValues> act_and_values_multi(
      const std::vector<std::vector<double>>& states,
      std::span<const std::size_t> group_sizes) const override;
  // Deep-copies the network (PolicyNet::clone — bitwise-equal weights).
  [[nodiscard]] std::shared_ptr<Teacher> clone() const override;

 private:
  explicit PolicyNetTeacher(std::shared_ptr<const nn::PolicyNet> owned);

  const nn::PolicyNet* net_;
  // Set only on clones: keeps the copied network alive. The public
  // constructor borrows the caller's net, matching the original contract.
  std::shared_ptr<const nn::PolicyNet> owned_;
};

// One-step lookahead successor for Eq. 1's model-based Q estimates.
struct Lookahead {
  double reward = 0.0;
  std::vector<double> next_state;  // full (DNN-view) successor state
};

// Environment view used by the trace collector. Reset/step mirror
// nn::DiscreteEnv; the extras expose (a) the interpretable features of the
// current state and (b) model-based Q(s,·) estimates for Eq. 1.
class RolloutEnv {
 public:
  virtual ~RolloutEnv() = default;
  [[nodiscard]] virtual std::size_t action_count() const = 0;
  // Starts episode `episode`. The episode must be a pure function of the
  // index: any stochastic choices (trace selection, start offsets, state
  // noise) must derive from it deterministically, e.g. via
  // Rng::derive(seed, episode) — never from generator state carried over
  // from earlier episodes. This contract is what lets the sharded
  // collector replay episodes on different workers bit-for-bit.
  virtual std::vector<double> reset(std::size_t episode) = 0;
  virtual nn::StepResult step(std::size_t action) = 0;
  // Interpretable features of the current (pre-action) state.
  [[nodiscard]] virtual std::vector<double> interpretable_features()
      const = 0;
  // Per-action (reward, next state) lookahead at the current state,
  // simulated without mutating the live episode. Returns empty if the
  // environment cannot simulate lookahead (then Eq. 1 weighting degrades
  // to uniform). Environments that can peek should implement this — it is
  // what lets the collector batch all V(s') evaluations into one forward.
  [[nodiscard]] virtual std::vector<Lookahead> lookahead() const {
    return {};
  }
  // Q(s,a) ≈ r(s,a) + γ V_teacher(s') for every action at the current
  // state. The default derives Q from lookahead() with one teacher.value
  // call per action (the scalar reference path); environments may override
  // with bespoke estimates instead of lookahead().
  [[nodiscard]] virtual std::vector<double> q_values(const Teacher& teacher,
                                                     double gamma) const;
  // Independent copy sharing no mutable state with this env, equivalent
  // under reset(e) for every e (the episode-determinism contract above).
  // Parallel trace collection and concurrent serve jobs give each worker
  // its own clone; envs returning nullptr (the default) are collected
  // sequentially and serialize concurrent jobs instead.
  [[nodiscard]] virtual std::shared_ptr<RolloutEnv> clone() const {
    return nullptr;
  }
};

}  // namespace metis::core
