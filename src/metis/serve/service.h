// metis::serve::Service — the asynchronous, multi-tenant front door of
// the library (the ROADMAP's serving north star; Net2Vec makes the same
// case that network-ML needs a serving architecture, not per-call
// scripts).
//
//   serve::Service svc({.workers = 4});
//   auto abr = svc.submit_distill("abr");         // returns immediately
//   auto nfv = svc.submit_interpret("nfv");
//   while (!abr.finished()) { ... poll abr.status() ... }
//   tree::print_tree(abr.distill_run().result.tree, std::cout);
//
// A fixed pool of workers drains a FIFO job queue. Built teacher/env
// systems are cached per scenario key behind per-key locks, so concurrent
// jobs for the SAME scenario share one built (finetuned) teacher —
// read-only, see core::Teacher — while DIFFERENT scenarios build in
// parallel. Every distill job drives its own clone of the scenario's env
// (RolloutEnv::clone), and every interpret job searches over its own deep
// clone of the cached model (MaskableModel::clone), so N same-key jobs
// occupy N workers concurrently with no execution lock.
//
// The synchronous metis::Interpreter facade is a thin wrapper over this
// class (submit + wait), so both surfaces share one cache and one code
// path.
#pragma once

#include <atomic>
#include <cstddef>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "metis/api/registry.h"
#include "metis/api/runs.h"
#include "metis/serve/job.h"
#include "metis/util/mutex.h"
#include "metis/util/thread_pool.h"

namespace metis::serve {

// Job limits: caps on the size of one job. Overrides come off the wire
// unchecked, and a distill job makes `episodes` env clones and collects up
// to episodes x max_steps x dagger_iterations samples, so submit_* checks
// every set override against these before anything is allocated and
// refuses values outside [1, cap]. The caps are fixed (not scaled by
// ScenarioOptions::scale); scenario defaults are trusted code and not
// checked. At these caps a distill job collects at most 256 x 256 x 8 =
// 524,288 samples (ABR's 30-chunk episodes stop it at 61,440).
inline constexpr std::size_t kMaxEpisodes = 256;           // per round
inline constexpr std::size_t kMaxSteps = 256;              // per episode
inline constexpr std::size_t kMaxDaggerIterations = 8;     // rounds
inline constexpr std::size_t kMaxLeaves = 4096;
inline constexpr std::size_t kMaxInterpretSteps = 10000;   // §4.2 steps

struct ServiceConfig {
  // Fixed worker pool size: how many jobs make progress concurrently.
  std::size_t workers = 2;
  // Scenario resolution; nullptr = ScenarioRegistry::global().
  const api::ScenarioRegistry* registry = nullptr;
  // Build options (seed, teacher-training scale) for cached systems.
  api::ScenarioOptions options;
};

class Service {
 public:
  // Runs on the worker for each distill job that succeeds, with its
  // submitted key and run, BEFORE the status reads kDone: what the hook
  // does has happened once anyone sees the job done. No lock is held; an
  // exception fails the job.
  using DistillDoneHook =
      std::function<void(const std::string& key, const api::DistillRun& run)>;

  // Finished jobs the table retains. Past this many, the job that
  // finished longest ago is evicted (queued and running jobs never are);
  // handles already held stay valid, find() just stops returning it.
  static constexpr std::size_t kMaxFinishedJobs = 1024;

  explicit Service(ServiceConfig config = {},
                   DistillDoneHook on_distilled = nullptr);
  // Cancels every queued job, waits for running jobs, joins the pool.
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  // Enqueue the §3.2 conversion / the Figure-6 hypergraph search for the
  // scenario under `key`. Unknown keys are reported through the handle
  // (the job fails), not at submit time — submission never blocks on the
  // registry or the build cache. An override of 0 or past its job limit
  // throws std::invalid_argument naming the field, and no job is created.
  JobHandle submit_distill(std::string_view key,
                           const api::DistillOverrides& overrides = {});
  JobHandle submit_interpret(std::string_view key,
                             const api::InterpretOverrides& overrides = {});

  // Job-table lookups. find() returns an invalid handle for unknown ids.
  [[nodiscard]] JobHandle find(JobId id) const;
  [[nodiscard]] std::vector<JobHandle> jobs() const;

  // Blocks until every submitted job has reached a terminal state.
  void wait_all();

  // Evicts a terminal job from the table ahead of the kMaxFinishedJobs
  // rule; returns false for unknown ids and jobs still queued/running.
  // Live handles keep their state (and result, if untaken) alive.
  bool forget(JobId id);

  // Drops cached built systems (e.g. to rebuild teachers under new
  // options). Running jobs keep their already-resolved systems alive.
  void clear_cache();

  [[nodiscard]] std::size_t worker_count() const { return pool_.size(); }
  [[nodiscard]] const api::ScenarioRegistry& registry() const;
  [[nodiscard]] const api::ScenarioOptions& options() const {
    return config_.options;
  }

 private:
  // Per-scenario cache slot. `build_mu` serializes the (expensive) build
  // of one key while leaving other keys free to build concurrently. The
  // cache holds at most one slot per registered key, so the registry
  // bounds it.
  template <typename System>
  struct Slot {
    util::Mutex build_mu;
    bool built GUARDED_BY(build_mu) = false;
    System system GUARDED_BY(build_mu);
  };
  using LocalSlot = Slot<api::LocalSystem>;
  using GlobalSlot = Slot<api::GlobalSystem>;

  JobHandle enqueue(std::shared_ptr<detail::JobState> state);
  void run_job(const std::shared_ptr<detail::JobState>& state);
  // Queues a finishing job for kMaxFinishedJobs eviction.
  void retire(JobId id);
  void run_distill(const detail::JobState& state, api::DistillRun& out);
  void run_interpret(const detail::JobState& state, api::InterpretRun& out);
  [[nodiscard]] std::shared_ptr<LocalSlot> local_slot(const std::string& key);
  [[nodiscard]] std::shared_ptr<GlobalSlot> global_slot(const std::string& key);

  ServiceConfig config_;
  const DistillDoneHook on_distilled_;

  mutable util::Mutex table_mu_;
  std::map<JobId, std::shared_ptr<detail::JobState>> table_
      GUARDED_BY(table_mu_);
  JobId next_id_ GUARDED_BY(table_mu_) = 1;
  // Retired jobs still in table_, oldest first.
  std::deque<JobId> finished_ GUARDED_BY(table_mu_);

  // Guards the slot maps; never held while building (builds serialize
  // on the slot's own build_mu).
  util::Mutex cache_mu_;
  std::map<std::string, std::shared_ptr<LocalSlot>, std::less<>> local_
      GUARDED_BY(cache_mu_);
  std::map<std::string, std::shared_ptr<GlobalSlot>, std::less<>> global_
      GUARDED_BY(cache_mu_);

  std::atomic<bool> stopping_{false};
  util::ThreadPool pool_;  // last member: jobs may touch everything above
};

}  // namespace metis::serve

namespace metis {
// Export alongside metis::Interpreter as the intended public entry points.
using serve::Service;
}  // namespace metis
