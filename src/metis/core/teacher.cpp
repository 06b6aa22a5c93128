#include "metis/core/teacher.h"

#include "metis/nn/autodiff.h"
#include "metis/util/check.h"

namespace metis::core {

std::vector<std::size_t> Teacher::act_batch(
    const std::vector<std::vector<double>>& states) const {
  // Pure inference: the batch defaults (and their scalar callees) never
  // backpropagate, so the whole loop runs tape-free.
  nn::NoGradGuard no_grad;
  std::vector<std::size_t> out;
  out.reserve(states.size());
  for (const auto& s : states) out.push_back(act(s));
  return out;
}

std::vector<Teacher::ActValues> Teacher::act_and_values_multi(
    const std::vector<std::vector<double>>& states,
    std::span<const std::size_t> group_sizes) const {
  nn::NoGradGuard no_grad;
  std::vector<ActValues> out;
  out.reserve(group_sizes.size());
  std::size_t base = 0;
  for (std::size_t g : group_sizes) {
    MET_CHECK(g >= 1 && base + g <= states.size());
    ActValues av;
    av.action = act(states[base]);
    av.values.reserve(g);
    for (std::size_t r = base; r < base + g; ++r) {
      av.values.push_back(value(states[r]));
    }
    out.push_back(std::move(av));
    base += g;
  }
  MET_CHECK(base == states.size());
  return out;
}

PolicyNetTeacher::PolicyNetTeacher(const nn::PolicyNet* net) : net_(net) {
  MET_CHECK(net != nullptr);
}

std::size_t PolicyNetTeacher::action_count() const {
  return net_->action_count();
}

std::size_t PolicyNetTeacher::act(std::span<const double> state) const {
  return net_->greedy_action(state);
}

double PolicyNetTeacher::value(std::span<const double> state) const {
  return net_->value(state);
}

std::vector<std::size_t> PolicyNetTeacher::act_batch(
    const std::vector<std::vector<double>>& states) const {
  return net_->greedy_actions(states);
}

std::vector<Teacher::ActValues> PolicyNetTeacher::act_and_values_multi(
    const std::vector<std::vector<double>>& states,
    std::span<const std::size_t> group_sizes) const {
  auto results = net_->act_and_values_multi(states, group_sizes);
  std::vector<ActValues> out;
  out.reserve(results.size());
  for (auto& [action, values] : results) {
    out.push_back({action, std::move(values)});
  }
  return out;
}

}  // namespace metis::core
