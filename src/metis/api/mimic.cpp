#include "metis/api/mimic.h"

#include <cmath>
#include <utility>

#include "metis/nn/autodiff.h"
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

TabularTeacher::TabularTeacher(nn::Tensor probs) : probs_(std::move(probs)) {
  MET_CHECK(probs_.rows() > 0 && probs_.cols() >= 2);
}

std::size_t TabularTeacher::action_count() const { return probs_.cols(); }

std::size_t TabularTeacher::unit_of(std::span<const double> state) const {
  MET_CHECK(!state.empty());
  const auto unit = static_cast<std::size_t>(std::llround(state[0]));
  MET_CHECK_MSG(unit < probs_.rows(), "decision-unit index out of range");
  return unit;
}

std::size_t TabularTeacher::act(std::span<const double> state) const {
  const std::size_t unit = unit_of(state);
  std::size_t best = 0;
  for (std::size_t c = 1; c < probs_.cols(); ++c) {
    if (probs_(unit, c) > probs_(unit, best)) best = c;
  }
  return best;
}

double TabularTeacher::value(std::span<const double>) const { return 0.0; }

LocalSystem mimic_local_system(std::shared_ptr<core::MaskableModel> model,
                               const std::string& unit_name) {
  MET_CHECK(model != nullptr);
  const auto& graph = model->graph();
  const nn::Tensor decisions =
      model->decisions(nn::constant(graph.incidence_matrix()))->value();

  const bool edge_major = decisions.rows() == graph.edge_count() &&
                          !graph.edge_features.empty();
  std::vector<std::string> names = {unit_name};
  if (edge_major) {
    for (std::size_t f = 0; f < graph.edge_features.cols(); ++f) {
      names.push_back(unit_name + "_f" + std::to_string(f));
    }
  }

  std::vector<std::vector<double>> states;
  std::vector<std::vector<double>> features;
  states.reserve(decisions.rows());
  features.reserve(decisions.rows());
  for (std::size_t u = 0; u < decisions.rows(); ++u) {
    states.push_back({static_cast<double>(u)});
    std::vector<double> row = {static_cast<double>(u)};
    if (edge_major) {
      for (std::size_t f = 0; f < graph.edge_features.cols(); ++f) {
        row.push_back(graph.edge_features(u, f));
      }
    }
    features.push_back(std::move(row));
  }

  LocalSystem sys;
  sys.teacher = std::make_shared<TabularTeacher>(decisions);
  sys.env = std::make_shared<ReplayRolloutEnv>(
      std::move(states), std::move(features), decisions.cols());
  sys.keepalive = std::move(model);

  sys.distill_defaults.feature_names = std::move(names);
  sys.distill_defaults.collect.episodes = 2;
  sys.distill_defaults.collect.max_steps = decisions.rows();
  sys.distill_defaults.dagger_iterations = 1;
  sys.distill_defaults.max_leaves = std::max<std::size_t>(decisions.rows(), 8);
  sys.distill_defaults.fit.min_samples_leaf = 1;
  return sys;
}

}  // namespace metis::api
