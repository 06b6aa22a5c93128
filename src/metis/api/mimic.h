// Generic adapters that turn recorded or recomputed decisions into the
// Teacher/RolloutEnv pair the §3.2 pipeline expects.
//
// Two uses inside the facade:
//  * ReplayRolloutEnv — replays a fixed set of recorded states (e.g. the
//    per-flow decision points an AuTO agent saw); the live teacher labels
//    them. Decision systems whose state stream does not depend on the
//    student's actions distill exactly this way in the paper (§6.4's
//    flow scheduler).
//  * TabularTeacher + mimic_local_system — wraps a global system's
//    per-unit decision distributions (rows of MaskableModel::decisions
//    under the full incidence mask) as a teacher over unit indices, so a
//    hypergraph scenario can *also* be driven through
//    Interpreter::distill. Only routing does; the Appendix-B scenarios
//    offer interpretation only (scenarios/register.h).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "metis/api/scenario.h"
#include "metis/nn/tensor.h"

namespace metis::api {

// Open-loop environment over recorded (full state, interpretable feature)
// rows. Episode k starts at row k (mod N) and walks the whole list, so
// DAgger rounds with different episode offsets still cover every state.
// Actions do not influence the replayed stream; lookahead() stays empty,
// so Eq. 1 weighting degrades to uniform.
class ReplayRolloutEnv final : public core::RolloutEnv {
 public:
  ReplayRolloutEnv(std::vector<std::vector<double>> full_states,
                   std::vector<std::vector<double>> features,
                   std::size_t action_count);

  [[nodiscard]] std::size_t action_count() const override;
  std::vector<double> reset(std::size_t episode) override;
  nn::StepResult step(std::size_t action) override;
  [[nodiscard]] std::vector<double> interpretable_features() const override;
  // The replayed rows are immutable and behind shared_ptrs, so the
  // member-wise copy shares them — clones per collection worker cost a
  // few words, not a corpus copy.
  [[nodiscard]] std::shared_ptr<core::RolloutEnv> clone() const override {
    return std::make_shared<ReplayRolloutEnv>(*this);
  }

  [[nodiscard]] std::size_t size() const { return full_states_->size(); }

 private:
  [[nodiscard]] std::size_t row() const;

  std::shared_ptr<const std::vector<std::vector<double>>> full_states_;
  std::shared_ptr<const std::vector<std::vector<double>>> features_;
  std::size_t action_count_;
  std::size_t start_ = 0;
  std::size_t walked_ = 0;
};

// Teacher defined by a fixed decision table: state[0] is the decision-unit
// index, row `unit` of `probs` is π(·|unit). Values are zero (no critic),
// so advantage weighting is uniform — matching the global systems, whose
// interpretation weight lives in the hypergraph mask instead.
class TabularTeacher final : public core::Teacher {
 public:
  explicit TabularTeacher(nn::Tensor probs);

  [[nodiscard]] std::size_t action_count() const override;
  [[nodiscard]] std::size_t act(std::span<const double> state) const override;
  [[nodiscard]] double value(std::span<const double> state) const override;

 private:
  [[nodiscard]] std::size_t unit_of(std::span<const double> state) const;

  nn::Tensor probs_;  // units x actions
};

// Builds the decision-mimic local system of a global scenario: evaluates
// `model`'s decisions under the full incidence mask and exposes them as a
// TabularTeacher over a ReplayRolloutEnv of unit indices. When the
// hypergraph carries edge features and decisions are edge-major, the
// feature rows are appended to the interpretable view so the student tree
// can split on them (not just on the index).
[[nodiscard]] LocalSystem mimic_local_system(
    std::shared_ptr<core::MaskableModel> model, const std::string& unit_name);

}  // namespace metis::api
