// RouteNet* — the paper's closed-loop DL routing optimizer (§5): a learned
// differentiable link-delay model drives candidate-path selection for every
// traffic demand. Metis interprets the resulting (path, link) hypergraph
// with the §4.2 critical-connection search.
//
// The learned component is a small MLP fitted to the M/M/1 ground truth
// (standing in for RouteNet's GNN trained on OMNeT++ data); the closed loop
// ("RouteNet*", §5) alternates latency prediction and path re-selection.
#pragma once

#include <memory>
#include <vector>

#include "metis/core/hypergraph_interpreter.h"
#include "metis/hypergraph/hypergraph.h"
#include "metis/nn/mlp.h"
#include "metis/nn/optim.h"
#include "metis/nn/sparse.h"
#include "metis/routing/latency_model.h"
#include "metis/routing/paths.h"
#include "metis/routing/topology.h"
#include "metis/routing/traffic.h"

namespace metis::routing {

// Differentiable per-link delay predictor: utilization -> delay.
class LinkDelayNet {
 public:
  explicit LinkDelayNet(std::uint64_t seed);

  // Supervised fit against the M/M/1 model; returns final training MSE.
  // Adam fits a trainable copy of the weights and the net keeps the result
  // frozen (nn::Mlp::frozen), so a trained net holds no gradient state
  // for anything downstream to accumulate into; a later train() starts
  // from the frozen values.
  double train(const LatencyModelConfig& truth, std::size_t samples = 1024,
               std::size_t epochs = 300, double max_utilization = 1.2);

  // Batch forward: utilization column (N x 1) -> delay column (N x 1).
  [[nodiscard]] nn::Var forward(const nn::Var& utilization_col) const;
  [[nodiscard]] double predict(double utilization) const;

  // Copy with frozen weights (nn::Mlp::frozen): forward() values are
  // bitwise the original's, and a backward through it computes only the
  // input gradient — what the §4.2 search differentiates — so every
  // concurrent search can share one frozen copy.
  [[nodiscard]] LinkDelayNet frozen() const;

  [[nodiscard]] const nn::Mlp& net() const { return net_; }

 private:
  metis::Rng rng_;
  nn::Mlp net_;
  // Target standardization fitted by train(): the queueing curve spans two
  // orders of magnitude, so the net learns the standardized curve and
  // forward()/predict() undo the affine transform.
  double y_mean_ = 0.0;
  double y_std_ = 1.0;
};

struct RouteNetConfig {
  std::size_t candidates = 3;     // k candidate paths per demand
  std::size_t loop_rounds = 4;    // closed-loop refinement iterations
  double softmax_beta = 1.0;      // decision sharpness in Y
  LatencyModelConfig latency;     // ground-truth queueing model
  std::uint64_t seed = 17;
};

class RouteNetStar {
 public:
  RouteNetStar(const Topology* topo, RouteNetConfig cfg);

  // Trains the internal delay model; must run before route().
  double train(std::size_t samples = 1024, std::size_t epochs = 300);

  struct RoutingResult {
    std::vector<Demand> demands;
    std::vector<std::vector<Path>> candidates;  // k per demand (padded)
    std::vector<std::size_t> chosen;            // candidate index per demand
    [[nodiscard]] std::vector<Path> routes() const;
  };

  // Closed-loop routing of a traffic matrix.
  [[nodiscard]] RoutingResult route(const TrafficMatrix& tm) const;

  [[nodiscard]] const Topology& topology() const { return *topo_; }
  [[nodiscard]] const RouteNetConfig& config() const { return cfg_; }
  [[nodiscard]] const LinkDelayNet& delay_net() const { return delay_net_; }

 private:
  const Topology* topo_;
  RouteNetConfig cfg_;
  LinkDelayNet delay_net_;
};

// §4.1 scenario #1: the routing result as a hypergraph — links are
// vertices (features: capacity), chosen paths are hyperedges (features:
// demand volume).
[[nodiscard]] hypergraph::Hypergraph routing_hypergraph(
    const Topology& topo, const RouteNetStar::RoutingResult& result);

// MaskableModel adapter: re-derives RouteNet*'s per-demand decision
// distributions under a masked incidence matrix, differentiably, so the
// §4.2 interpreter can score every (path, link) connection.
class RoutingMaskModel final : public core::MaskableModel {
 public:
  RoutingMaskModel(const RouteNetStar* model,
                   RouteNetStar::RoutingResult result);

  [[nodiscard]] const hypergraph::Hypergraph& graph() const override {
    return graph_;
  }
  [[nodiscard]] nn::Var decisions(const nn::Var& mask) const override;
  // Clone for concurrent interpretation: decisions() touches no
  // gradient-carrying state (the delay net is frozen), so the copy shares
  // the frozen delay net, the constants and the candidate incidence
  // read-only with the original. The original RouteNetStar must stay
  // alive while clones run (GlobalSystem keepalive covers this on the
  // serve path).
  [[nodiscard]] std::shared_ptr<core::MaskableModel> clone() const override;
  [[nodiscard]] const RouteNetStar::RoutingResult& result() const {
    return result_;
  }
  // The weight-frozen copy of the model's delay net that decisions()
  // runs, taken at construction and shared by every clone.
  [[nodiscard]] const LinkDelayNet& delay_net() const { return *delay_net_; }

 private:
  const RouteNetStar* model_;
  std::shared_ptr<const LinkDelayNet> delay_net_;
  RouteNetStar::RoutingResult result_;
  hypergraph::Hypergraph graph_;
  nn::Tensor volumes_row_;       // 1 x |E| demand volumes
  nn::Tensor inv_capacity_row_;  // 1 x |V|
  // The same two, frozen once as constant nodes: decisions() runs every
  // mask-optimization step, and rebuilding a constant copies its whole
  // tensor. Constants carry no gradient, so sharing the nodes across
  // steps (and across clones) is race-free.
  nn::Var volumes_const_;
  nn::Var inv_capacity_const_;
  // (|E| * k) x |V| 0-1 candidate-path incidence, each row a path's few
  // links: a constant CSR shared read-only by every clone.
  std::shared_ptr<const nn::CsrMatrix> candidate_incidence_;
};

}  // namespace metis::routing
