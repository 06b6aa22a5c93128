// Figure 16 (§6.4): decision latency and per-flow decision coverage.
//
// Paper claims: (a) converting AuTO's lRLA DNN to a decision tree cuts
// per-flow decision latency by 26.8x (61.61 ms -> 2.30 ms); (b) the
// shorter latency lets per-flow scheduling reach more flows — +33% flows
// and +46% bytes covered on the data-mining workload.
//
// Part (a) measures the in-process inference-time ratio (absolute times
// are this machine's, the ratio is the claim); part (b) replays the same
// workloads through the fabric simulator with each latency and reports
// coverage.
#include <chrono>
#include <functional>
#include <iostream>

#include "bench_common.h"
#include "metis/flowsched/auto_agents.h"
#include "metis/flowsched/fabric_sim.h"
#include "metis/flowsched/flow_gen.h"
#include "metis/flowsched/tree_scheduler.h"
#include "metis/tree/flat_tree.h"
#include "metis/tree/prune.h"

using namespace metis;
using namespace metis::flowsched;

namespace {

// Compiler barrier so the measured calls are not optimized away.
template <class T>
inline void keep(T const& value) {
  asm volatile("" : : "g"(value) : "memory");
}

struct LatencyScenario {
  benchx::LrlaScenario lrla{
      benchx::make_lrla(WorkloadFamily::kDataMining)};
  std::vector<Flow> probe_flows;

  LatencyScenario() {
    FlowGenConfig gen;
    gen.family = WorkloadFamily::kDataMining;
    gen.load = 0.45;
    gen.duration_s = 0.3;
    probe_flows = generate_workload(gen, 77);
  }
};

LatencyScenario& scenario() {
  static LatencyScenario s;
  return s;
}

double measure_ns(const std::function<void()>& fn, std::size_t iters) {
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < iters; ++i) fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::nano>(t1 - t0).count() /
         static_cast<double>(iters);
}

void coverage_part() {
  auto& s = scenario();
  std::cout << "\n(b) per-flow decision coverage (fraction of flows/bytes "
               "whose decision matured in time):\n";
  for (auto family :
       {WorkloadFamily::kWebSearch, WorkloadFamily::kDataMining}) {
    const std::string name =
        family == WorkloadFamily::kWebSearch ? "Web Search" : "Data Mining";
    FlowGenConfig gen;
    gen.family = family;
    gen.load = 0.45;
    gen.duration_s = 0.4;
    auto workload = generate_workload(gen, 991);

    LrlaScheduler dnn_sched(
        [&](const Flow& f, double sent) {
          return s.lrla.agent->priority_for(f, sent);
        },
        kDnnDecisionLatency);
    TreeLrlaScheduler tree_sched(s.lrla.tree,
                                 s.lrla.fabric.mlfq.queue_count(),
                                 kTreeDecisionLatency);
    FabricSim sim(s.lrla.fabric);
    const Coverage dnn_cov = coverage_of(sim.run(workload, &dnn_sched));
    const Coverage tree_cov = coverage_of(sim.run(workload, &tree_sched));

    Table table({name, "flows covered", "bytes covered"});
    table.add_row({"AuTO (61.6 ms)", Table::pct(dnn_cov.flow_fraction),
                   Table::pct(dnn_cov.byte_fraction)});
    table.add_row({"Metis+AuTO (2.3 ms)", Table::pct(tree_cov.flow_fraction),
                   Table::pct(tree_cov.byte_fraction)});
    table.print(std::cout);
    std::cout << "coverage gain: flows +"
              << Table::pct(tree_cov.flow_fraction - dnn_cov.flow_fraction)
              << ", bytes +"
              << Table::pct(tree_cov.byte_fraction - dnn_cov.byte_fraction)
              << "  (paper DM: flows +33%, bytes +46%)\n";
  }
}

}  // namespace

int main() {
  benchx::print_header("Figure 16 — decision latency and coverage",
                       "expected: tree inference 10-100x faster than the "
                       "DNN; faster decisions cover more flows/bytes");

  // Direct measurement of the single-decision ratio.
  auto& s = scenario();
  const tree::FlatTree flat = tree::FlatTree::compile(s.lrla.tree);
  const Flow& f = s.probe_flows.front();
  const double dnn_ns =
      measure_ns([&] { keep(s.lrla.agent->priority_for(f, 1e4)); }, 20000);
  const double tree_ns = measure_ns(
      [&] {
        const auto feats = lrla_features(f, 1e4);
        keep(flat.predict(feats));
      },
      20000);
  std::cout << "\n(a) single-decision inference: DNN " << dnn_ns
            << " ns vs tree " << tree_ns << " ns -> " << dnn_ns / tree_ns
            << "x faster (paper: 26.8x end-to-end)\n";

  coverage_part();
  return 0;
}
