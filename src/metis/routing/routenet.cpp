#include "metis/routing/routenet.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "metis/util/check.h"
#include "metis/util/stats.h"

namespace metis::routing {

LinkDelayNet::LinkDelayNet(std::uint64_t seed)
    : rng_(seed), net_({1, 32, 32, 1}, nn::Activation::kTanh, rng_) {}

double LinkDelayNet::train(const LatencyModelConfig& truth,
                           std::size_t samples, std::size_t epochs,
                           double max_utilization) {
  MET_CHECK(samples > 0 && epochs > 0);
  nn::Tensor x(samples, 1);
  std::vector<double> raw(samples);
  for (std::size_t i = 0; i < samples; ++i) {
    const double u = rng_.uniform(0.0, max_utilization);
    x(i, 0) = u;
    raw[i] = link_delay(u, 1.0, truth);
  }
  y_mean_ = metis::mean(raw);
  y_std_ = std::max(metis::stddev(raw), 1e-9);
  nn::Tensor y(samples, 1);
  for (std::size_t i = 0; i < samples; ++i) {
    y(i, 0) = (raw[i] - y_mean_) / y_std_;
  }
  nn::Var xv = nn::constant(std::move(x));
  nn::Var yv = nn::constant(std::move(y));
  constexpr double kLrMax = 2e-2;
  // Adam trains a copy; the fitted weights are kept frozen (see header).
  nn::Mlp trainee = net_.clone();
  nn::Adam opt(trainee.parameters(), kLrMax);
  double last = 0.0;
  for (std::size_t e = 0; e < epochs; ++e) {
    // Hold the full rate for most of training, then decay to settle the
    // sharp elbow near saturation without undoing earlier progress.
    const double progress = static_cast<double>(e) /
                            static_cast<double>(epochs);
    if (progress > 0.7) {
      opt.set_lr(kLrMax * std::pow(0.05, (progress - 0.7) / 0.3));
    }
    nn::Var loss = nn::mse_loss(trainee.forward(xv), yv);
    opt.zero_grad();
    nn::backward(loss);
    opt.step();
    last = loss->value()(0, 0);
  }
  net_ = trainee.frozen();
  return last * y_std_ * y_std_;  // report on the raw delay scale
}

nn::Var LinkDelayNet::forward(const nn::Var& utilization_col) const {
  MET_CHECK(utilization_col->value().cols() == 1);
  return nn::add_scalar(nn::scale(net_.forward(utilization_col), y_std_),
                        y_mean_);
}

double LinkDelayNet::predict(double utilization) const {
  return net_.predict_row(std::vector<double>{utilization})[0] * y_std_ +
         y_mean_;
}

LinkDelayNet LinkDelayNet::frozen() const {
  LinkDelayNet copy(*this);  // rng state + standardization scalars
  copy.net_ = net_.frozen();
  return copy;
}

RouteNetStar::RouteNetStar(const Topology* topo, RouteNetConfig cfg)
    : topo_(topo), cfg_(std::move(cfg)), delay_net_(cfg_.seed) {
  MET_CHECK(topo != nullptr);
  MET_CHECK(cfg_.candidates >= 1);
  MET_CHECK(cfg_.loop_rounds >= 1);
}

double RouteNetStar::train(std::size_t samples, std::size_t epochs) {
  return delay_net_.train(cfg_.latency, samples, epochs);
}

std::vector<Path> RouteNetStar::RoutingResult::routes() const {
  std::vector<Path> rs;
  rs.reserve(demands.size());
  for (std::size_t i = 0; i < demands.size(); ++i) {
    rs.push_back(candidates[i][chosen[i]]);
  }
  return rs;
}

RouteNetStar::RoutingResult RouteNetStar::route(
    const TrafficMatrix& tm) const {
  MET_CHECK(!tm.demands.empty());
  RoutingResult result;
  result.demands = tm.demands;
  for (const auto& d : tm.demands) {
    auto cands = k_shortest_paths(*topo_, d.src, d.dst, cfg_.candidates);
    MET_CHECK_MSG(!cands.empty(), "demand between disconnected nodes");
    while (cands.size() < cfg_.candidates) cands.push_back(cands.front());
    result.candidates.push_back(std::move(cands));
  }
  result.chosen.assign(tm.demands.size(), 0);  // start on shortest paths

  // Closed loop: predicted-latency-greedy reassignment, demands updated
  // sequentially against live loads (the "RouteNet*" concatenation of
  // latency prediction and routing decisions).
  for (std::size_t round = 0; round < cfg_.loop_rounds; ++round) {
    auto loads = link_loads(*topo_, tm, result.routes());
    bool changed = false;
    for (std::size_t i = 0; i < result.demands.size(); ++i) {
      const double vol = result.demands[i].volume;
      // Remove this demand's current contribution.
      for (std::size_t lid : result.candidates[i][result.chosen[i]].links) {
        loads[lid] -= vol;
      }
      double best_lat = std::numeric_limits<double>::infinity();
      std::size_t best_c = result.chosen[i];
      for (std::size_t c = 0; c < result.candidates[i].size(); ++c) {
        double lat = 0.0;
        for (std::size_t lid : result.candidates[i][c].links) {
          const double u =
              (loads[lid] + vol) / topo_->link(lid).capacity;
          lat += delay_net_.predict(u);
        }
        if (lat < best_lat - 1e-12) {
          best_lat = lat;
          best_c = c;
        }
      }
      if (best_c != result.chosen[i]) {
        result.chosen[i] = best_c;
        changed = true;
      }
      for (std::size_t lid : result.candidates[i][result.chosen[i]].links) {
        loads[lid] += vol;
      }
    }
    if (!changed) break;
  }
  return result;
}

hypergraph::Hypergraph routing_hypergraph(
    const Topology& topo, const RouteNetStar::RoutingResult& result) {
  MET_CHECK(!result.demands.empty());
  hypergraph::Hypergraph graph(topo.link_count(), result.demands.size());
  graph.vertex_names.reserve(topo.link_count());
  for (std::size_t v = 0; v < topo.link_count(); ++v) {
    graph.vertex_names.push_back(topo.link_name(v));
  }
  graph.vertex_features = nn::Tensor(topo.link_count(), 1);
  for (std::size_t v = 0; v < topo.link_count(); ++v) {
    graph.vertex_features(v, 0) = topo.link(v).capacity;
  }
  graph.edge_features = nn::Tensor(result.demands.size(), 1);
  const auto routes = result.routes();
  for (std::size_t e = 0; e < routes.size(); ++e) {
    graph.edge_names.push_back(routes[e].name());
    graph.edge_features(e, 0) = result.demands[e].volume;
    for (std::size_t lid : routes[e].links) graph.connect(e, lid);
  }
  graph.validate();
  return graph;
}

RoutingMaskModel::RoutingMaskModel(const RouteNetStar* model,
                                   RouteNetStar::RoutingResult result)
    : model_(model),
      delay_net_(std::make_shared<const LinkDelayNet>(
          model->delay_net().frozen())),
      result_(std::move(result)),
      graph_(routing_hypergraph(model->topology(), result_)),
      volumes_row_(1, result_.demands.size()),
      inv_capacity_row_(1, model->topology().link_count()) {
  MET_CHECK(model != nullptr);
  const Topology& topo = model_->topology();
  for (std::size_t e = 0; e < result_.demands.size(); ++e) {
    volumes_row_(0, e) = result_.demands[e].volume;
  }
  for (std::size_t v = 0; v < topo.link_count(); ++v) {
    inv_capacity_row_(0, v) = 1.0 / topo.link(v).capacity;
  }
  const std::size_t k = model_->config().candidates;
  nn::Tensor candidates(result_.demands.size() * k, topo.link_count(), 0.0);
  for (std::size_t e = 0; e < result_.demands.size(); ++e) {
    MET_CHECK(result_.candidates[e].size() == k);
    for (std::size_t c = 0; c < k; ++c) {
      for (std::size_t lid : result_.candidates[e][c].links) {
        candidates(e * k + c, lid) = 1.0;
      }
    }
  }
  volumes_const_ = nn::constant(volumes_row_);
  inv_capacity_const_ = nn::constant(inv_capacity_row_);
  candidate_incidence_ = std::make_shared<const nn::CsrMatrix>(candidates);
}

nn::Var RoutingMaskModel::decisions(const nn::Var& mask) const {
  const std::size_t n_demands = result_.demands.size();
  const std::size_t k = model_->config().candidates;
  // Masked link loads: (1 x |E|) · (|E| x |V|) -> 1 x |V|.
  nn::Var loads = nn::matmul(volumes_const_, mask);
  nn::Var utilization = nn::mul(loads, inv_capacity_const_);
  // Learned per-link delays.
  nn::Var delays = delay_net_->forward(nn::transpose(utilization));
  // Candidate-path latencies: ((|E|k) x |V|) · (|V| x 1).
  nn::Var cand_lat = nn::matmul(*candidate_incidence_, delays);
  nn::Var logits = nn::reshape(
      nn::scale(cand_lat, -model_->config().softmax_beta), n_demands, k);
  return nn::softmax_rows(logits);
}

std::shared_ptr<core::MaskableModel> RoutingMaskModel::clone() const {
  return std::make_shared<RoutingMaskModel>(*this);
}

}  // namespace metis::routing
