// Parity oracle for core::find_critical_connections: the §4.2 search over
// the dense |E| x |V| box, as it ran before the search went sparse. The
// logits and the Adam state cover every cell, the gating scans the dense
// incidence matrix, and the regularizer below scans it again; every
// kernel family runs at isa::Level::kReference underneath, and no
// arena::Scope is open, so every
// tensor buffer and tape node comes from plain operator new.
// find_critical_connections, which optimises one logit per connection
// with both pools recycling, must reproduce its mask, ranking and loss
// diagnostics bit for bit.
#pragma once

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "metis/core/hypergraph_interpreter.h"
#include "metis/nn/optim.h"
#include "metis/util/isa.h"

namespace metis::oracle {

inline constexpr double kMaskEps = 1e-8;

// c1·Σ W + c2·H(W) over the support entries, scanning the whole dense
// support for them (row-major), with the same per-entry gradient the
// library's support-indexed op applies.
inline nn::Var dense_mask_regularizer(const nn::Var& w, const nn::Var& support,
                                      double c1, double c2, double* sum_out,
                                      double* entropy_out) {
  auto wd = w->value().data();
  auto sv = support->value().data();
  double sum = 0.0;
  double ent = 0.0;
  for (std::size_t i = 0; i < wd.size(); ++i) {
    if (sv[i] == 0.0) continue;
    sum += wd[i];
    ent += wd[i] * std::log(std::max(wd[i], kMaskEps)) +
           (1.0 - wd[i]) * std::log(std::max(1.0 - wd[i], kMaskEps));
  }
  ent = -ent;
  *sum_out = sum;
  *entropy_out = ent;
  auto node = std::make_shared<nn::Node>(nn::Tensor(1, 1, c1 * sum + c2 * ent),
                                         w->requires_grad());
  if (w->requires_grad()) {
    node->set_parents(w, support);
    node->set_backward([c1, c2](nn::Node& n) {
      auto& pw = *n.parents()[0];
      auto& ps = *n.parents()[1];
      const double g = n.grad()(0, 0);
      auto wd = pw.value().data();
      auto sv = ps.value().data();
      auto pg = pw.grad().data();
      for (std::size_t i = 0; i < wd.size(); ++i) {
        if (sv[i] == 0.0) continue;
        const double dterm = std::log(std::max(wd[i], kMaskEps)) +
                             wd[i] / std::max(wd[i], kMaskEps) -
                             std::log(std::max(1.0 - wd[i], kMaskEps)) -
                             (1.0 - wd[i]) / std::max(1.0 - wd[i], kMaskEps);
        pg[i] += g * (c1 - c2 * dterm);
      }
    });
  }
  return node;
}

inline core::InterpretResult find_critical_connections(
    const core::MaskableModel& model, const core::InterpretConfig& cfg) {
  isa::ScopedLevel reference(isa::Level::kReference);
  const hypergraph::Hypergraph& graph = model.graph();
  graph.validate();
  const nn::Tensor incidence = graph.incidence_matrix();
  const nn::Var incidence_const = nn::constant(incidence);

  const nn::Var y_ref = model.decisions(nn::constant(incidence));
  const nn::Var y_target = nn::constant(y_ref->value());
  const bool discrete = model.discrete_output();
  nn::Var log_target;
  if (discrete) log_target = nn::log_op(y_target);

  metis::Rng rng(cfg.seed);
  nn::Tensor logits0(incidence.rows(), incidence.cols());
  for (double& v : logits0.data()) v = rng.normal(0.0, 0.05);
  const nn::Var logits = nn::parameter(std::move(logits0));
  nn::Adam opt({logits}, cfg.lr);

  const double n_conn =
      std::max<double>(1.0, static_cast<double>(graph.connection_count()));
  double last_div = 0.0, last_l1 = 0.0, last_entropy = 0.0;
  for (std::size_t step = 0; step < cfg.steps; ++step) {
    const nn::Var w = nn::gated_sigmoid(logits, incidence_const);
    const nn::Var y = model.decisions(w);
    const nn::Var divergence =
        discrete ? nn::kl_divergence_rows_cached(y_target, log_target, y)
                 : nn::mse_loss(y, y_target);
    double sum_w = 0.0, entropy_w = 0.0;
    const nn::Var reg = dense_mask_regularizer(
        w, incidence_const, cfg.lambda1 / n_conn, cfg.lambda2 / n_conn,
        &sum_w, &entropy_w);
    const nn::Var loss = nn::add(divergence, reg);
    opt.zero_grad();
    nn::backward(loss);
    opt.step();
    last_div = divergence->value()(0, 0);
    last_l1 = sum_w / n_conn;
    last_entropy = entropy_w / n_conn;
  }

  core::InterpretResult result;
  result.mask = nn::gated_sigmoid(logits, incidence_const)->value();
  result.divergence = last_div;
  result.mask_l1 = last_l1;
  result.entropy = last_entropy;
  for (const auto& c : graph.connections()) {
    result.ranked.push_back({c.edge, c.vertex, result.mask(c.edge, c.vertex)});
  }
  std::sort(result.ranked.begin(), result.ranked.end(),
            [](const core::ScoredConnection& a,
               const core::ScoredConnection& b) { return a.mask > b.mask; });
  return result;
}

}  // namespace metis::oracle
