#include "metis/api/mimic.h"

#include <utility>

#include "metis/util/check.h"

namespace metis::api {

ReplayRolloutEnv::ReplayRolloutEnv(
    std::vector<std::vector<double>> full_states,
    std::vector<std::vector<double>> features, std::size_t action_count)
    : full_states_(std::make_shared<const std::vector<std::vector<double>>>(
          std::move(full_states))),
      features_(std::make_shared<const std::vector<std::vector<double>>>(
          std::move(features))),
      action_count_(action_count) {
  MET_CHECK(!full_states_->empty());
  MET_CHECK(full_states_->size() == features_->size());
  MET_CHECK(action_count_ >= 2);
}

std::size_t ReplayRolloutEnv::action_count() const { return action_count_; }

std::size_t ReplayRolloutEnv::row() const {
  return (start_ + walked_) % full_states_->size();
}

std::vector<double> ReplayRolloutEnv::reset(std::size_t episode) {
  start_ = episode % full_states_->size();
  walked_ = 0;
  return (*full_states_)[row()];
}

nn::StepResult ReplayRolloutEnv::step(std::size_t action) {
  MET_CHECK(action < action_count_);
  ++walked_;
  nn::StepResult sr;
  sr.done = walked_ >= full_states_->size();  // all rows exposed once
  sr.next_state = (*full_states_)[row()];
  return sr;
}

std::vector<double> ReplayRolloutEnv::interpretable_features() const {
  return (*features_)[row()];
}

}  // namespace metis::api
