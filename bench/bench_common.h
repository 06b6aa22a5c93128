// Shared scenario builders for the benchmark harness. Every bench binary
// regenerates one table/figure of the paper; they share the teachers and
// corpora built here so results are comparable across benches.
//
// Sizes are chosen so each binary completes in tens of seconds on a
// laptop while preserving the paper's qualitative relationships.
#pragma once

#include <filesystem>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "metis/abr/baselines.h"
#include "metis/abr/distill_adapter.h"
#include "metis/abr/env.h"
#include "metis/abr/pensieve.h"
#include "metis/abr/trace_gen.h"
#include "metis/abr/tree_policy.h"
#include "metis/core/distill.h"
#include "metis/core/hypergraph_interpreter.h"
#include "metis/flowsched/auto_agents.h"
#include "metis/flowsched/fabric_sim.h"
#include "metis/flowsched/flow_gen.h"
#include "metis/flowsched/tree_scheduler.h"
#include "metis/nn/serialize.h"
#include "metis/tree/prune.h"
#include "metis/routing/routenet.h"
#include "metis/util/stats.h"
#include "metis/util/table.h"

namespace metis::benchx {

// ---- Pensieve ---------------------------------------------------------------

struct PensieveScenario {
  abr::Video video{48, 7};
  std::vector<abr::NetworkTrace> train_traces;
  std::vector<abr::NetworkTrace> hsdpa_test;
  std::vector<abr::NetworkTrace> fcc_test;
  std::unique_ptr<abr::AbrEnv> env;
  std::unique_ptr<abr::PensieveAgent> agent;
};

// The finetuned Pensieve teacher: behavior-cloned from the causal MPC
// expert (DAgger x2), then A2C-finetuned for `episodes`. Trained weights
// are cached under .metis_cache/ so only the first bench/example pays the
// ~1 minute of training; delete the directory to retrain.
inline PensieveScenario make_pensieve(bool modified_structure = false,
                                      std::size_t episodes = 300,
                                      std::uint64_t seed = 3) {
  PensieveScenario s;
  abr::TraceGenConfig hsdpa;
  hsdpa.family = abr::TraceFamily::kHsdpa;
  hsdpa.duration_seconds = 1000.0;
  abr::TraceGenConfig fcc;
  fcc.family = abr::TraceFamily::kFcc;
  fcc.duration_seconds = 1000.0;
  s.train_traces = abr::generate_corpus(hsdpa, 20, 100);
  {
    auto extra = abr::generate_corpus(fcc, 8, 200);
    s.train_traces.insert(s.train_traces.end(), extra.begin(), extra.end());
  }
  s.hsdpa_test = abr::generate_corpus(hsdpa, 16, 900);
  s.fcc_test = abr::generate_corpus(fcc, 16, 901);
  s.env = std::make_unique<abr::AbrEnv>(s.video, s.train_traces);

  abr::PensieveConfig pc;
  pc.seed = seed;
  pc.modified_structure = modified_structure;
  pc.train.episodes = episodes;
  pc.train.max_steps = 60;
  pc.train.actor_lr = 1e-4;
  pc.train.entropy_bonus = 0.005;
  s.agent = std::make_unique<abr::PensieveAgent>(pc);

  const std::string cache = ".metis_cache/pensieve_s" + std::to_string(seed) +
                            (modified_structure ? "_mod" : "_orig") + "_e" +
                            std::to_string(episodes) + ".params";
  if (!nn::load_parameters(s.agent->net().parameters(), cache)) {
    s.agent->pretrain(*s.env);
    if (episodes > 0) s.agent->train(*s.env);
    std::filesystem::create_directories(".metis_cache");
    nn::save_parameters(s.agent->net().parameters(), cache);
  }
  return s;
}

inline core::DistillResult distill_pensieve(PensieveScenario& s,
                                            std::size_t max_leaves = 200,
                                            bool resample = true,
                                            std::size_t dagger = 3,
                                            std::uint64_t seed = 1) {
  core::PolicyNetTeacher teacher(&s.agent->net());
  abr::AbrRolloutEnv rollout(s.env.get());
  core::DistillConfig dc;
  dc.collect.episodes = 20;
  dc.collect.max_steps = 60;
  dc.dagger_iterations = dagger;
  dc.max_leaves = max_leaves;
  dc.resample = resample;
  dc.seed = seed;
  dc.feature_names = abr::tree_feature_names();
  return core::distill_policy(teacher, rollout, dc);
}

inline double mean_qoe_over(abr::AbrPolicy& policy, const abr::Video& video,
                            const std::vector<abr::NetworkTrace>& corpus) {
  std::vector<double> qoes;
  for (const auto& trace : corpus) {
    qoes.push_back(abr::run_abr_episode(video, trace, policy).mean_qoe());
  }
  return metis::mean(qoes);
}

inline std::vector<double> qoes_over(
    abr::AbrPolicy& policy, const abr::Video& video,
    const std::vector<abr::NetworkTrace>& corpus) {
  std::vector<double> qoes;
  for (const auto& trace : corpus) {
    qoes.push_back(abr::run_abr_episode(video, trace, policy).mean_qoe());
  }
  return qoes;
}

inline const std::vector<std::string>& bitrate_labels() {
  static const std::vector<std::string> labels = {
      "300kbps", "750kbps", "1200kbps", "1850kbps", "2850kbps", "4300kbps"};
  return labels;
}

// ---- AuTO lRLA ---------------------------------------------------------------

struct LrlaScenario {
  flowsched::FabricConfig fabric;
  std::unique_ptr<flowsched::LrlaAgent> agent;
  tree::DecisionTree tree;  // distilled priority policy
  std::vector<std::vector<flowsched::Flow>> train;
};

// CEM-trains the lRLA teacher on two workloads of `family` (policy search
// at tree latency so median-flow decisions carry signal), then distills
// the priority tree by replaying the teacher. Weights cached like the
// Pensieve teacher's.
inline LrlaScenario make_lrla(flowsched::WorkloadFamily family,
                              std::uint64_t seed = 7) {
  using namespace metis::flowsched;
  LrlaScenario s;
  FlowGenConfig gen;
  gen.family = family;
  gen.load = 0.45;
  gen.duration_s = 0.35;
  s.train = {generate_workload(gen, 50 + seed), generate_workload(gen, 51 + seed)};

  s.agent = std::make_unique<LrlaAgent>(s.fabric.mlfq.queue_count(), seed);
  const std::string cache =
      ".metis_cache/lrla_" +
      std::string(family == WorkloadFamily::kWebSearch ? "ws" : "dm") + "_s" +
      std::to_string(seed) + ".params";
  if (!nn::load_parameters(s.agent->net().parameters(), cache)) {
    CemConfig cem;
    cem.iterations = 5;
    cem.population = 10;
    s.agent->train(s.train, s.fabric, cem);
    std::filesystem::create_directories(".metis_cache");
    nn::save_parameters(s.agent->net().parameters(), cache);
  }

  // Distillation dataset: replay the teacher over the training workloads.
  LrlaScheduler sched(
      [&](const flowsched::Flow& f, double sent) {
        return s.agent->priority_for(f, sent);
      },
      kTreeTrainLatency);
  FabricSim sim(s.fabric);
  for (const auto& wl : s.train) (void)sim.run(wl, &sched);
  tree::Dataset data;
  data.feature_names = {"log_size", "log_sent", "frac_sent"};
  for (const auto& d : sched.decisions()) {
    data.add(d.features, static_cast<double>(d.priority));
  }
  tree::FitConfig fit;
  fit.min_samples_leaf = 2;
  s.tree = tree::DecisionTree::fit(data, fit);
  if (s.tree.leaf_count() > 2000) tree::prune_to_leaf_count(s.tree, 2000);
  return s;
}

// ---- RouteNet* --------------------------------------------------------------

struct RouteNetScenario {
  routing::Topology topo{routing::nsfnet()};
  std::unique_ptr<routing::RouteNetStar> model;
  std::vector<routing::TrafficMatrix> traffic;  // the "50 samples"
};

inline RouteNetScenario make_routenet(std::size_t traffic_samples = 50,
                                      double intensity = 0.6,
                                      std::uint64_t seed = 11,
                                      double softmax_beta = 1.0) {
  RouteNetScenario s;
  routing::RouteNetConfig cfg;
  cfg.seed = seed;
  cfg.softmax_beta = softmax_beta;
  s.model = std::make_unique<routing::RouteNetStar>(&s.topo, cfg);
  s.model->train(1024, 300);
  routing::TrafficGenConfig tcfg;
  tcfg.intensity = intensity;
  s.traffic = routing::generate_traffic_set(s.topo, tcfg, traffic_samples,
                                            seed + 1000);
  return s;
}

inline void print_header(const std::string& id, const std::string& claim) {
  std::cout << "\n==================================================\n"
            << id << "\n" << claim << "\n"
            << "==================================================\n";
}

}  // namespace metis::benchx
