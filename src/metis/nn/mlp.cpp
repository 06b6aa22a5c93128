#include "metis/nn/mlp.h"

#include <algorithm>

#include "metis/util/check.h"

namespace metis::nn {

Mlp::Mlp(const std::vector<std::size_t>& dims, Activation hidden_act,
         metis::Rng& rng)
    : hidden_act_(hidden_act) {
  MET_CHECK_MSG(dims.size() >= 2, "Mlp needs at least {in, out} dims");
  layers_.reserve(dims.size() - 1);
  for (std::size_t i = 0; i + 1 < dims.size(); ++i) {
    layers_.emplace_back(dims[i], dims[i + 1], rng);
  }
}

Var Mlp::forward(const Var& x) const {
  Var h = x;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    h = layers_[i].forward(h);
    if (i + 1 < layers_.size()) h = apply_activation(h, hidden_act_);
  }
  return h;
}

std::vector<double> Mlp::predict_row(std::span<const double> input) const {
  NoGradGuard no_grad;  // value-only: skip the tape entirely
  Var out = forward(constant(Tensor::row(input)));
  auto d = out->value().data();
  return {d.begin(), d.end()};
}

Mlp Mlp::clone() const {
  Mlp copy(*this);
  copy.layers_.clear();
  for (const auto& l : layers_) copy.layers_.push_back(l.clone());
  return copy;
}

Mlp Mlp::frozen() const {
  Mlp copy(*this);
  for (auto& l : copy.layers_) l = l.frozen();
  return copy;
}

std::vector<Var> Mlp::parameters() const {
  std::vector<Var> ps;
  for (const auto& l : layers_) {
    for (auto& p : l.parameters()) ps.push_back(p);
  }
  return ps;
}

std::size_t Mlp::in_dim() const { return layers_.front().in_dim(); }
std::size_t Mlp::out_dim() const { return layers_.back().out_dim(); }

PolicyNet::PolicyNet(std::size_t state_dim, std::size_t hidden_dim,
                     std::size_t hidden_layers, std::size_t action_count,
                     metis::Rng& rng, int skip_feature)
    : state_dim_(state_dim),
      action_count_(action_count),
      skip_feature_(skip_feature),
      hidden_([&] {
        std::vector<Linear> hs;
        MET_CHECK(hidden_layers >= 1);
        hs.reserve(hidden_layers);
        hs.emplace_back(state_dim, hidden_dim, rng);
        for (std::size_t i = 1; i < hidden_layers; ++i) {
          hs.emplace_back(hidden_dim, hidden_dim, rng);
        }
        return hs;
      }()),
      policy_head_(hidden_dim + (skip_feature >= 0 ? 1 : 0), action_count,
                   rng),
      value_head_(hidden_dim, 1, rng) {
  MET_CHECK(skip_feature < static_cast<int>(state_dim));
}

Var PolicyNet::trunk(const Var& states) const {
  MET_CHECK_MSG(states->value().cols() == state_dim_,
                "PolicyNet: state width mismatch");
  Var h = states;
  for (const auto& l : hidden_) {
    h = apply_activation(l.forward(h), Activation::kRelu);
  }
  return h;
}

Var PolicyNet::logits(const Var& states) const {
  return policy_logits_from_trunk(trunk(states), states);
}

Var PolicyNet::policy_logits_from_trunk(const Var& h_in,
                                        const Var& states) const {
  Var h = h_in;
  if (skip_feature_ >= 0) {
    // Modified structure (Fig. 10b): route the significant input feature
    // straight into the policy head. Inputs carry no gradient, so lifting
    // the column out of the state tensor is safe.
    const Tensor& sv = states->value();
    Tensor col(sv.rows(), 1);
    for (std::size_t r = 0; r < sv.rows(); ++r) {
      col(r, 0) = sv(r, static_cast<std::size_t>(skip_feature_));
    }
    h = concat_cols(h, constant(std::move(col)));
  }
  return policy_head_.forward(h);
}

Var PolicyNet::values(const Var& states) const {
  return value_head_.forward(trunk(states));
}

std::vector<double> PolicyNet::action_probs(
    std::span<const double> state) const {
  NoGradGuard no_grad;
  Var p = softmax_rows(logits(constant(Tensor::row(state))));
  auto d = p->value().data();
  return {d.begin(), d.end()};
}

std::size_t PolicyNet::greedy_action(std::span<const double> state) const {
  auto probs = action_probs(state);
  return static_cast<std::size_t>(
      std::max_element(probs.begin(), probs.end()) - probs.begin());
}

double PolicyNet::value(std::span<const double> state) const {
  NoGradGuard no_grad;
  return values(constant(Tensor::row(state)))->value()(0, 0);
}

std::vector<ActValues> PolicyNet::act_and_values_multi(
    const std::vector<std::vector<double>>& rows,
    std::span<const std::size_t> group_sizes) const {
  std::size_t total = 0;
  for (std::size_t g : group_sizes) {
    MET_CHECK_MSG(g >= 1, "act_and_values_multi: empty group");
    total += g;
  }
  MET_CHECK_MSG(total == rows.size(),
                "act_and_values_multi: group sizes must cover all rows");
  std::vector<ActValues> out;
  if (rows.empty()) return out;
  NoGradGuard no_grad;
  const Var x = constant(Tensor::from_rows(rows));
  const Var h = trunk(x);  // one forward, shared by both heads
  const Var v = value_head_.forward(h);
  // Only each group's first (acting) row feeds the policy head; rows are
  // independent, so the gathered rows' logits are the full batch's.
  auto acting_rows = [&](const Tensor& t) {
    Tensor picked(group_sizes.size(), t.cols());
    std::size_t base = 0;
    for (std::size_t i = 0; i < group_sizes.size(); ++i) {
      const auto row = t.data().subspan(base * t.cols(), t.cols());
      std::copy(row.begin(), row.end(), picked.data().begin() + i * t.cols());
      base += group_sizes[i];
    }
    return picked;
  };
  const Var p = softmax_rows(policy_logits_from_trunk(
      constant(acting_rows(h->value())), constant(acting_rows(x->value()))));
  const Tensor& probs = p->value();
  const Tensor& vals = v->value();
  out.reserve(group_sizes.size());
  std::size_t base = 0;
  for (std::size_t i = 0; i < group_sizes.size(); ++i) {
    std::size_t best = 0;
    for (std::size_t c = 1; c < probs.cols(); ++c) {
      if (probs(i, c) > probs(i, best)) best = c;
    }
    std::vector<double> values(group_sizes[i]);
    for (std::size_t j = 0; j < values.size(); ++j) {
      values[j] = vals(base + j, 0);
    }
    out.push_back({best, std::move(values)});
    base += group_sizes[i];
  }
  return out;
}

PolicyNet PolicyNet::clone() const {
  PolicyNet copy(*this);
  copy.hidden_.clear();
  for (const auto& l : hidden_) copy.hidden_.push_back(l.clone());
  copy.policy_head_ = policy_head_.clone();
  copy.value_head_ = value_head_.clone();
  return copy;
}

std::vector<Var> PolicyNet::parameters() const {
  std::vector<Var> ps;
  for (const auto& l : hidden_) {
    for (auto& p : l.parameters()) ps.push_back(p);
  }
  for (auto& p : policy_head_.parameters()) ps.push_back(p);
  for (auto& p : value_head_.parameters()) ps.push_back(p);
  return ps;
}

}  // namespace metis::nn
