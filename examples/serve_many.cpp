// Serve-path demo: every registered scenario family, concurrently,
// through one asynchronous metis::Service.
//
//   serve::Service svc({.workers = 3});
//   for (key : registry.keys())
//     handles.push_back(has_local ? svc.submit_distill(key)
//                                 : svc.submit_interpret(key));
//   ... poll statuses while the pool works ...
//
// Six submissions return immediately; a fixed pool of three workers
// builds the systems (different scenarios in parallel, repeated keys
// sharing one cached build) and runs the §3.2 conversions for the
// families that distill and the §4.2 critical-connection search for the
// Appendix-B families, which are interpreted only. The main thread polls
// job statuses while the pool drains — the serving shape the ROADMAP's
// north star asks for, in ~60 lines of user code.
//
// Run:  ./examples/serve_many
#include <chrono>
#include <iostream>
#include <thread>
#include <vector>

#include "metis/serve/service.h"
#include "metis/util/table.h"

int main() {
  using namespace metis;

  serve::ServiceConfig cfg;
  cfg.workers = 3;          // three scenario builds in flight at once
  cfg.options.scale = 0.2;  // demo-grade teachers (seconds, not minutes)
  serve::Service svc(cfg);

  const auto keys = svc.registry().keys();
  std::vector<serve::JobHandle> jobs;
  jobs.reserve(keys.size());
  for (const auto& key : keys) {
    const bool distills = svc.registry().get(key).has_local();
    jobs.push_back(distills ? svc.submit_distill(key)
                            : svc.submit_interpret(key));
    std::cout << "submitted job " << jobs.back().id() << " ("
              << (distills ? "distill " : "interpret ") << key << ")\n";
  }

  // Poll until every job lands — this thread stays free for status pages,
  // new submissions, cancellations, ...
  for (bool all_done = false; !all_done;) {
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
    std::string line = "status:";
    all_done = true;
    for (const auto& job : jobs) {
      line += " " + job.scenario() + "=" + serve::to_string(job.status());
      all_done = all_done && job.finished();
    }
    std::cout << line << "\n";
  }

  Table distilled({"scenario", "status", "samples", "leaves", "fidelity"});
  Table interpreted({"scenario", "status", "connections", "mask > 0.5",
                     "top mask"});
  for (auto& job : jobs) {
    const bool distill = job.kind() == serve::JobKind::kDistill;
    Table& table = distill ? distilled : interpreted;
    if (job.status() != serve::JobStatus::kDone) {
      table.add_row({job.scenario(), serve::to_string(job.status()), "-", "-",
                     job.error()});
      continue;
    }
    if (distill) {
      const api::DistillRun& run = job.distill_run();
      table.add_row({job.scenario(), "done",
                     std::to_string(run.result.samples_collected),
                     std::to_string(run.result.tree.leaf_count()),
                     Table::pct(run.result.fidelity)});
      continue;
    }
    const core::InterpretResult& result = job.interpret_run().result;
    std::size_t kept = 0;
    for (const auto& c : result.ranked) kept += c.mask > 0.5 ? 1 : 0;
    table.add_row(
        {job.scenario(), "done", std::to_string(result.ranked.size()),
         std::to_string(kept),
         result.ranked.empty() ? "-" : Table::num(result.ranked[0].mask)});
  }
  std::cout << "\ndistill jobs (§3.2)\n";
  distilled.print(std::cout);
  std::cout << "\ninterpret jobs (§4.2)\n";
  interpreted.print(std::cout);
  return 0;
}
