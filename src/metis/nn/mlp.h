// Multi-layer perceptron and the actor-critic policy network used by all
// local-system teachers (Pensieve, AuTO's lRLA/sRLA analogues).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "metis/nn/layers.h"

namespace metis::nn {

// Plain feedforward network: hidden layers with a shared activation and a
// linear output layer.
class Mlp {
 public:
  // dims = {in, h1, ..., hk, out}; requires at least {in, out}.
  Mlp(const std::vector<std::size_t>& dims, Activation hidden_act,
      metis::Rng& rng);

  [[nodiscard]] Var forward(const Var& x) const;

  // Convenience single-row inference: returns the output row for one input.
  [[nodiscard]] std::vector<double> predict_row(
      std::span<const double> input) const;

  // Deep copy with fresh parameter nodes (bitwise-equal values): forwards
  // are bitwise identical to the original's, gradients and training are
  // fully independent. This is what lets concurrent interpret jobs run
  // one model per job instead of serializing on shared weight gradients.
  [[nodiscard]] Mlp clone() const;
  // Copy with every layer frozen (see Linear::frozen): same forwards, no
  // weight gradients, shareable read-only across concurrent tapes.
  [[nodiscard]] Mlp frozen() const;

  [[nodiscard]] std::vector<Var> parameters() const;
  [[nodiscard]] std::size_t in_dim() const;
  [[nodiscard]] std::size_t out_dim() const;

 private:
  std::vector<Linear> layers_;
  Activation hidden_act_;
};

// One group's answer from PolicyNet::act_and_values_multi: the greedy
// action for the group's first row and V for every row of the group.
struct ActValues {
  std::size_t action = 0;
  std::vector<double> values;  // values[i] = V(row i of the group)
};

// Softmax policy + scalar value head over a shared MLP trunk, mirroring the
// A3C-style architecture of Pensieve/AuTO.
//
// §6.2 model redesign: when `skip_feature >= 0`, that input column is
// concatenated directly onto the last hidden layer before the policy head
// ("putting significant inputs near the output"), reproducing the paper's
// modified structure in Figure 10(b). The two structures have identical
// expressiveness but different optimization behaviour.
class PolicyNet {
 public:
  PolicyNet(std::size_t state_dim, std::size_t hidden_dim,
            std::size_t hidden_layers, std::size_t action_count,
            metis::Rng& rng, int skip_feature = -1);

  // Policy logits for a batch of states (N x action_count).
  [[nodiscard]] Var logits(const Var& states) const;
  // State values (N x 1).
  [[nodiscard]] Var values(const Var& states) const;

  // Action distribution for one state.
  [[nodiscard]] std::vector<double> action_probs(
      std::span<const double> state) const;
  // Greedy action (argmax probability).
  [[nodiscard]] std::size_t greedy_action(std::span<const double> state) const;
  // V(s) for one state.
  [[nodiscard]] double value(std::span<const double> state) const;

  // Batched policy+value inference for the trace-collection hot path:
  // `rows` stacks several groups of states; group_sizes[i] gives group i's
  // row count, and its first row is that group's acting state. One trunk
  // forward covers every row and feeds the value head; the policy head and
  // softmax run only on each group's first row, the only one whose action
  // is read. Result i is bitwise identical to greedy_action(group i's
  // first row) plus value() of each of its rows, because each matrix row
  // is computed independently, in the same operation order, regardless of
  // which other rows share the batch.
  [[nodiscard]] std::vector<ActValues> act_and_values_multi(
      const std::vector<std::vector<double>>& rows,
      std::span<const std::size_t> group_sizes) const;

  // Deep copy with fresh parameter nodes (see Mlp::clone): same outputs,
  // independent gradients.
  [[nodiscard]] PolicyNet clone() const;

  [[nodiscard]] std::vector<Var> parameters() const;
  [[nodiscard]] std::size_t state_dim() const { return state_dim_; }
  [[nodiscard]] std::size_t action_count() const { return action_count_; }
  [[nodiscard]] int skip_feature() const { return skip_feature_; }

 private:
  [[nodiscard]] Var trunk(const Var& states) const;
  [[nodiscard]] Var policy_logits_from_trunk(const Var& h,
                                             const Var& states) const;

  std::size_t state_dim_;
  std::size_t action_count_;
  int skip_feature_;
  std::vector<Linear> hidden_;
  Linear policy_head_;
  Linear value_head_;
};

}  // namespace metis::nn
