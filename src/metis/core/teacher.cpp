#include "metis/core/teacher.h"

#include "metis/nn/autodiff.h"
#include "metis/util/check.h"

namespace metis::core {

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

std::vector<Teacher::ActValues> PolicyNetTeacher::act_and_values_multi(
    const std::vector<std::vector<double>>& states,
    std::span<const std::size_t> group_sizes) const {
  return net_->act_and_values_multi(states, group_sizes);
}

}  // namespace metis::core
