// Interpretation-engine benchmark: single-job §4.2 mask-optimization
// latency on NFV, cluster and routing hypergraphs up to the 182 x 42
// routing box — and wall clock for N concurrent same-key interpret jobs
// through serve::Service, each on its own model clone.
//
// Emits BENCH_interpret.json.
#include <algorithm>
#include <chrono>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "metis/api/registry.h"
#include "metis/core/hypergraph_interpreter.h"
#include "metis/scenarios/cluster.h"
#include "metis/scenarios/nfv.h"
#include "metis/serve/service.h"
#include "metis/util/table.h"

#include "bench_common.h"

namespace {

using namespace metis;  // NOLINT

constexpr std::size_t kSteps = 400;
constexpr int kReps = 7;

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Cheap-build scenario handing the service a fixed cluster DAG, so the
// concurrent measurements time the searches, not teacher training.
class BenchClusterScenario final : public api::Scenario {
 public:
  explicit BenchClusterScenario(scenarios::ClusterJob job)
      : job_(std::move(job)) {}
  std::string key() const override { return "bench-cluster"; }
  std::string description() const override { return "bench cluster DAG"; }
  bool has_local() const override { return false; }
  bool has_global() const override { return true; }
  api::GlobalSystem make_global(const api::ScenarioOptions&) const override {
    api::GlobalSystem sys;
    sys.model = std::make_shared<scenarios::ClusterSchedulingModel>(job_);
    sys.keepalive = sys.model;
    sys.interpret_defaults.steps = kSteps;
    return sys;
  }

 private:
  scenarios::ClusterJob job_;
};

// Best-of-kReps wall clock of one kSteps-step search, in ms.
double single_job_ms(const core::MaskableModel& model) {
  core::InterpretConfig cfg;
  cfg.steps = kSteps;
  double best = 1e100;
  for (int rep = 0; rep < kReps; ++rep) {
    const double t0 = now_seconds();
    (void)core::find_critical_connections(model, cfg);
    best = std::min(best, now_seconds() - t0);
  }
  return best * 1e3;
}

// Wall-clock for `jobs` same-key interpret jobs on a `jobs`-worker
// service (build pre-warmed).
double concurrent_wall_seconds(const api::ScenarioRegistry& reg,
                               std::size_t jobs) {
  serve::ServiceConfig cfg;
  cfg.workers = jobs;
  cfg.registry = &reg;
  serve::Service svc(cfg);
  svc.submit_interpret("bench-cluster").wait();  // pay the build once

  double best = 1e100;
  for (int rep = 0; rep < 3; ++rep) {
    const double t0 = now_seconds();
    std::vector<serve::JobHandle> handles;
    handles.reserve(jobs);
    for (std::size_t j = 0; j < jobs; ++j) {
      handles.push_back(svc.submit_interpret("bench-cluster"));
    }
    for (const auto& h : handles) h.wait();
    best = std::min(best, now_seconds() - t0);
    for (const auto& h : handles) {
      if (h.status() != serve::JobStatus::kDone) {
        std::cerr << "job failed: " << h.error() << "\n";
        std::exit(EXIT_FAILURE);
      }
    }
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  benchx::print_header(
      "bench_interpret",
      "§4.2 mask-optimization latency and concurrent same-key interpret "
      "wall clock (one model clone per job)");

  // --threads N tops out the concurrent-job sweep (default: hardware
  // threads, min 8 so the queueing regime is visible even on one core).
  std::size_t max_jobs =
      std::max(8u, std::thread::hardware_concurrency());
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      max_jobs = std::max<std::size_t>(1, std::stoul(argv[++i]));
    }
  }

  // ---- single-job latency ---------------------------------------------------
  // The routing instance is the one the repo benchmark's interpret jobs
  // search (scale 0.25, default seed).
  api::ScenarioOptions routing_options;
  routing_options.scale = 0.25;
  const api::GlobalSystem routing =
      api::ScenarioRegistry::global().get("routing").make_global(
          routing_options);
  scenarios::NfvPlacementModel fig21(scenarios::figure21_nfv());
  scenarios::NfvPlacementModel nfv16(scenarios::random_nfv(16, 16, 21));
  scenarios::ClusterSchedulingModel dag(scenarios::random_job(6, 5, 2026));
  const std::vector<std::pair<std::string, const core::MaskableModel*>>
      models = {{"fig21", &fig21},
                {"nfv16", &nfv16},
                {"cluster", &dag},
                {"routing", routing.model.get()}};

  metis::Table single({"model", "E x V", "connections", "job (ms)"});
  benchx::JsonReport json("interpret");
  json.set("steps", kSteps);
  for (const auto& [name, model] : models) {
    const hypergraph::Hypergraph& graph = model->graph();
    const double ms = single_job_ms(*model);
    single.add_row({name,
                    std::to_string(graph.edge_count()) + " x " +
                        std::to_string(graph.vertex_count()),
                    std::to_string(graph.connection_count()),
                    metis::Table::num(ms)});
    json.set(name + "_connections", graph.connection_count());
    json.set(name + "_ms", ms);
  }
  single.print(std::cout);
  std::cout << "(" << kSteps << " steps per job, best of " << kReps << ")\n";

  // ---- concurrent jobs ------------------------------------------------------
  api::ScenarioRegistry reg;
  reg.add(std::make_unique<BenchClusterScenario>(
      scenarios::random_job(6, 5, 2026)));

  std::vector<std::size_t> job_counts;
  for (std::size_t j = 1; j < max_jobs; j *= 2) job_counts.push_back(j);
  job_counts.push_back(max_jobs);
  std::vector<double> jobs_d, wall_ms;
  metis::Table table({"jobs", "wall (ms)", "per job (ms)"});
  for (std::size_t jobs : job_counts) {
    const double wall = concurrent_wall_seconds(reg, jobs) * 1e3;
    jobs_d.push_back(static_cast<double>(jobs));
    wall_ms.push_back(wall);
    table.add_row({std::to_string(jobs), metis::Table::num(wall),
                   metis::Table::num(wall / static_cast<double>(jobs))});
  }
  table.print(std::cout);
  const unsigned hw = std::thread::hardware_concurrency();
  std::cout << "\n(" << hw << " hardware threads; cluster DAG 6x5, "
            << kSteps << " steps per job)\n";

  json.set("hardware_threads", static_cast<std::size_t>(hw));
  json.set("concurrent_jobs", jobs_d);
  json.set("concurrent_wall_ms", wall_ms);
  json.set("max_concurrent_jobs", max_jobs);
  json.write();
  return 0;
}
