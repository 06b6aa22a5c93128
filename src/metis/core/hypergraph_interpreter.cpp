#include "metis/core/hypergraph_interpreter.h"

#include <algorithm>
#include <cmath>

#include "metis/nn/arena.h"
#include "metis/nn/optim.h"
#include "metis/nn/sparse.h"
#include "metis/util/check.h"

namespace metis::core {

std::vector<double> InterpretResult::mask_values() const {
  std::vector<double> vs;
  vs.reserve(ranked.size());
  for (const auto& c : ranked) vs.push_back(c.mask);
  return vs;
}

double InterpretResult::vertex_mask_sum(std::size_t vertex) const {
  MET_CHECK(vertex < mask.cols());
  double s = 0.0;
  for (std::size_t e = 0; e < mask.rows(); ++e) s += mask(e, vertex);
  return s;
}

// metis-lint: begin-deterministic — the §4.2 mask optimization: masks
// must be bitwise identical across concurrent jobs, clones, and pool
// legs. The only randomness is the explicitly seeded Rng(cfg.seed)
// logits initialization below.
InterpretResult find_critical_connections(const MaskableModel& model,
                                          const InterpretConfig& cfg) {
  MET_CHECK(cfg.steps > 0);
  // λ1, λ2 and lr arrive from the wire (api::InterpretOverrides): an
  // infinite weight turns every mask into NaN, and an infinite rate passes
  // Adam's lr > 0, so both are rejected here, before any step runs.
  MET_CHECK_MSG(std::isfinite(cfg.lambda1) && cfg.lambda1 >= 0.0 &&
                    std::isfinite(cfg.lambda2) && cfg.lambda2 >= 0.0,
                "interpret: lambda1 and lambda2 must be finite and >= 0");
  MET_CHECK_MSG(std::isfinite(cfg.lr) && cfg.lr > 0.0,
                "interpret: lr must be finite and > 0");

  const hypergraph::Hypergraph& graph = model.graph();
  graph.validate();
  const nn::Tensor incidence = graph.incidence_matrix();
  // The search's free variables are the connections, not the |E| x |V|
  // box: the logits, their gradient and the Adam state are 1 x nnz, one
  // entry per connection in the support's row-major order.
  const nn::CsrMatrix support(incidence);

  // Reference decisions Y_I with the unmasked incidence matrix, frozen as a
  // constant target. The forward runs with the tape off: a model with
  // trainable weights would otherwise keep its whole reference graph
  // alive for the entire search. For discrete systems the target's
  // per-entry logs are frozen too: they are re-read every step by the KL
  // term, so paying them once (instead of steps x |Y| log calls) is free
  // accuracy-wise — the cached node holds exactly log_op(y_target)'s
  // values.
  nn::Var y_target;
  {
    nn::NoGradGuard no_grad;
    nn::Var y_ref = model.decisions(nn::constant(incidence));
    y_target = nn::constant(y_ref->value());
  }
  const bool discrete = model.discrete_output();
  nn::Var log_target;
  if (discrete) log_target = nn::log_op(y_target);

  // Mask logits W' start at the entropy-neutral point sigmoid(0) = 0.5
  // (+ tiny noise for symmetry breaking): from there the divergence term
  // pulls critical connections towards 1 while λ1 pulls the rest towards 0,
  // and the entropy term then locks each side in (the Fig. 9a bimodality).
  // The draw still covers the whole box in row-major order, so a seed
  // gives each connection the same initial logit as a dense search would.
  metis::Rng rng(cfg.seed);
  nn::Tensor logits0(1, support.nnz());
  const auto offsets = support.offsets();
  for (std::size_t i = 0, j = 0; i < incidence.size(); ++i) {
    const double v = rng.normal(0.0, 0.05);
    if (j < offsets.size() && offsets[j] == i) logits0.data()[j++] = v;
  }
  nn::Var logits = nn::parameter(std::move(logits0));
  nn::Adam opt({logits}, cfg.lr);

  auto masked = [&] {
    // Gating (Eq. 9): W = I ∘ sigmoid(W') keeps 0 <= W_ev <= I_ev. The
    // fused op scatters one sigmoid per connection into the dense
    // |E| x |V| mask the model consumes.
    return nn::gated_sigmoid(logits, support);
  };

  // Normalize both penalties by the connection count to keep λ1/λ2
  // comparable across hypergraph sizes.
  const double n_conn =
      std::max<double>(1.0, static_cast<double>(graph.connection_count()));
  double last_div = 0.0, last_l1 = 0.0, last_entropy = 0.0;
  // Every optimization step builds and tears down the same graph shapes;
  // the arena recycles those buffers — and the node pool the tape
  // metadata — across all cfg.steps iterations. The logits gradient
  // (allocated lazily on the first backward) stays live past the scope,
  // which is safe: arena blocks are ordinary operator-new blocks whatever
  // their release site.
  nn::arena::Scope arena;
  for (std::size_t step = 0; step < cfg.steps; ++step) {
    cfg.cancel.check();  // mask-step boundary
    nn::Var w = masked();
    nn::Var y = model.decisions(w);
    // D(Y_W, Y_I) (Eq. 6) + λ1·||W|| (Eq. 7; W >= 0 by construction, so
    // |W| = W) + λ2·H(W) (Eq. 8, restricted to real connections — masked
    // entries are exactly 0 and contribute 0 to either penalty). The
    // regularizer is one fused node; its raw Σ W and H(W) feed the
    // Fig. 30 diagnostics below without extra graph work.
    nn::Var divergence =
        discrete ? nn::kl_divergence_rows_cached(y_target, log_target, y)
                 : nn::mse_loss(y, y_target);
    double sum_w = 0.0, entropy_w = 0.0;
    nn::Var reg =
        nn::mask_regularizer(w, support, cfg.lambda1 / n_conn,
                             cfg.lambda2 / n_conn, &sum_w, &entropy_w);
    nn::Var loss = nn::add(divergence, reg);
    opt.zero_grad();
    nn::backward(loss);
    opt.step();

    last_div = divergence->value()(0, 0);
    last_l1 = sum_w / n_conn;
    last_entropy = entropy_w / n_conn;
    if (cfg.on_step) cfg.on_step();
  }

  InterpretResult result;
  result.mask = masked()->value();
  result.divergence = last_div;
  result.mask_l1 = last_l1;
  result.entropy = last_entropy;
  for (const auto& c : graph.connections()) {
    result.ranked.push_back({c.edge, c.vertex, result.mask(c.edge, c.vertex)});
  }
  std::sort(result.ranked.begin(), result.ranked.end(),
            [](const ScoredConnection& a, const ScoredConnection& b) {
              return a.mask > b.mask;
            });
  return result;
}
// metis-lint: end-deterministic

}  // namespace metis::core
