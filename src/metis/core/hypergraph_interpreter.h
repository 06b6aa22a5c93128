// §4.2 — critical connection search over a hypergraph formulation.
//
// Given a global system whose decisions can be recomputed under a
// fractional incidence mask W ∈ [0,1]^{|E|x|V|}, Metis solves (Fig. 6):
//
//     min_W  D(Y_W, Y_I) + λ1·||W|| + λ2·H(W)      0 ≤ W_ev ≤ I_ev
//
// where D is KL divergence (discrete decisions) or MSE (continuous),
// ||W|| penalizes interpretation size, and the binary entropy H(W) forces
// connections towards 0/1 (determinism). The box constraint is enforced by
// the §5 gating trick: W = I ∘ sigmoid(W′), optimized with Adam on W′.
// Connections whose mask stays ~1 are the ones the system's decisions
// critically depend on.
//
// Sparse layout. Only the entries where I_ev = 1 are free variables, so
// the search optimizes one logit per connection: W′, its gradient and the
// Adam state are 1 x nnz, stored in the incidence support's row-major
// order (edges ascending, then vertices ascending — nn::CsrMatrix's entry
// order). The gating scatters those nnz sigmoids into the dense |E| x |V|
// mask that MaskableModel::decisions() receives, and the regularizer reads
// them back through the same entry list. That order is part of the
// result: ||W|| and H(W) are floating-point sums, so summing the
// connections in any other order would round differently and change the
// masks in the last bits. Row-major is also the order the dense
// formulation scanned the box in, which keeps every mask, ranking and
// diagnostic bitwise identical to it (tests/interpret_oracle.h). The
// initial logits are drawn for the whole box, row-major, and the support
// entries kept, so a seed means the same start point either way.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "metis/hypergraph/hypergraph.h"
#include "metis/nn/autodiff.h"
#include "metis/util/cancel.h"
#include "metis/util/rng.h"

namespace metis::core {

// A global system that can re-derive its decisions under a masked
// incidence matrix. decisions() must build an autodiff expression so the
// Figure-6 loss can backpropagate into the mask.
class MaskableModel {
 public:
  virtual ~MaskableModel() = default;
  [[nodiscard]] virtual const hypergraph::Hypergraph& graph() const = 0;
  // Decision matrix for a given mask (rows = decision units; for discrete
  // outputs each row must be a probability distribution).
  [[nodiscard]] virtual nn::Var decisions(const nn::Var& mask) const = 0;
  // Discrete decisions use KL divergence; continuous use MSE (Eq. 6).
  [[nodiscard]] virtual bool discrete_output() const { return true; }
  // Deep copy whose gradient-carrying state (learned weight nodes that
  // decisions() backpropagates through) is fully independent, so any
  // number of §4.2 searches can run over clones concurrently. decisions()
  // must stay bitwise identical to the original's. Clones may keep
  // borrowing the original's read-only backing objects (topology, traffic
  // matrices) — keep the built system alive while clones run. Every serve
  // interpret job searches over its own clone.
  [[nodiscard]] virtual std::shared_ptr<MaskableModel> clone() const = 0;
};

struct InterpretConfig {
  double lambda1 = 0.25;  // conciseness weight (Table 4's RouteNet* value)
  double lambda2 = 1.0;   // determinism weight
  std::size_t steps = 400;
  double lr = 0.05;
  std::uint64_t seed = 3;
  // Called after every completed optimization step — the progress feed
  // for serve::JobHandle::progress() on interpret jobs. Must be cheap and
  // thread-safe; does not influence the optimization.
  std::function<void()> on_step;
  // Cooperative cancellation, polled at mask-step boundaries. Never
  // alters a run that completes.
  util::CancelToken cancel;
};

struct ScoredConnection {
  std::size_t edge = 0;
  std::size_t vertex = 0;
  double mask = 0.0;
};

struct InterpretResult {
  nn::Tensor mask;  // |E| x |V|, zero outside the hypergraph's connections
  // All connections, sorted by descending mask value (Table 3's ranking).
  std::vector<ScoredConnection> ranked;
  // Final values of the three loss terms (Fig. 30's diagnostics).
  double divergence = 0.0;
  double mask_l1 = 0.0;
  double entropy = 0.0;

  // Mask values at the hypergraph's connections, in ranked order.
  [[nodiscard]] std::vector<double> mask_values() const;
  // Σ_e W_ve for one vertex — Figure 9(b)'s per-link criticality mass.
  [[nodiscard]] double vertex_mask_sum(std::size_t vertex) const;
};

// Runs the Figure-6 optimization and returns the scored connections.
[[nodiscard]] InterpretResult find_critical_connections(
    const MaskableModel& model, const InterpretConfig& cfg);

}  // namespace metis::core
