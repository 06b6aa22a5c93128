// ReplayRolloutEnv replays a fixed set of recorded states (e.g. the
// per-flow decision points an AuTO agent saw) as the RolloutEnv the §3.2
// pipeline expects; the live teacher labels them. Decision systems whose
// state stream does not depend on the student's actions distill exactly
// this way in the paper (§6.4's flow scheduler).
#pragma once

#include <memory>
#include <vector>

#include "metis/api/scenario.h"

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
  // member-wise copy shares them — a clone per collected episode costs a
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

}  // namespace metis::api
