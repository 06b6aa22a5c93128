// Job handles for the asynchronous metis::serve::Service.
//
// submit_*() returns a JobHandle immediately; the caller polls status(),
// blocks on wait(), or cancels a job that has not started. Handles are
// cheap shared references into the service's job table — copying one does
// not copy results, and a handle stays valid after the run completes, even
// once the table has evicted the job (see Service::kMaxFinishedJobs).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <memory>
#include <optional>
#include <string>

#include "metis/api/runs.h"
#include "metis/util/cancel.h"
#include "metis/util/mutex.h"

namespace metis::serve {

using JobId = std::uint64_t;

enum class JobKind { kDistill, kInterpret };

// kQueued -> kRunning -> kDone | kFailed | kCancelled | kTimedOut
// kQueued -> kCancelled            (cancel() before a worker picks it up)
// kQueued -> kTimedOut             (deadline expired before a worker did)
//
// A running job ends kCancelled/kTimedOut *cooperatively*: cancel() (or
// the submit-time deadline) fires the job's CancelToken, and the pipeline
// stops at its next work-unit checkpoint — episode, DAgger round, or
// mask step — freeing the worker slot promptly.
enum class JobStatus {
  kQueued,
  kRunning,
  kDone,
  kFailed,
  kCancelled,
  kTimedOut,
};

[[nodiscard]] const char* to_string(JobStatus status);
[[nodiscard]] inline bool is_terminal(JobStatus status) {
  return status == JobStatus::kDone || status == JobStatus::kFailed ||
         status == JobStatus::kCancelled || status == JobStatus::kTimedOut;
}

// Snapshot of a job's pipeline progress, finer-grained than the
// queued/running/done status. All zeros until the job's pipeline starts.
// Distill jobs tick the round/episode counters (episode counters are
// cumulative across DAgger rounds: episodes_total = episodes-per-round x
// rounds_total, and episodes_done only ever grows; tree fitting after the
// last round is not covered, so a job can sit at full progress briefly
// before status() flips to done). Interpret jobs tick the step counters —
// one per completed Figure-6 mask-optimization step — and leave the
// round/episode counters at zero.
struct JobProgress {
  std::size_t rounds_total = 0;    // collection rounds (dagger_iterations)
  std::size_t rounds_done = 0;
  std::size_t episodes_total = 0;  // across all rounds
  std::size_t episodes_done = 0;
  std::size_t steps_total = 0;     // mask-optimization steps (interpret)
  std::size_t steps_done = 0;
};

namespace detail {

// Lock-free progress counters written by the job's worker thread and read
// by any number of handle holders. Kept behind its own shared_ptr (not
// inline in JobState) so the collector callbacks that update it can
// outlive the job table entry without keeping the whole job alive.
struct ProgressCounters {
  std::atomic<std::size_t> rounds_total{0};
  std::atomic<std::size_t> rounds_done{0};
  std::atomic<std::size_t> episodes_total{0};
  std::atomic<std::size_t> episodes_done{0};
  std::atomic<std::size_t> steps_total{0};
  std::atomic<std::size_t> steps_done{0};
};

// Shared record behind a JobHandle. The service's workers write it; any
// number of handle holders read it. The fields up to `progress` are
// immutable after enqueue (id is assigned under the service's table lock
// before the job is published); everything below `mu` is GUARDED_BY it —
// enforced at compile time by the clang thread-safety leg.
struct JobState {
  JobId id = 0;
  JobKind kind = JobKind::kDistill;
  std::string scenario;
  api::DistillOverrides distill_overrides;
  api::InterpretOverrides interpret_overrides;
  std::shared_ptr<ProgressCounters> progress =
      std::make_shared<ProgressCounters>();
  // Cancellation/deadline plumbing. The source is created at enqueue and
  // never reassigned; cancel()/token() are internally thread-safe, so it
  // lives in the immutable prefix. The deadline (if any) is armed at
  // submit time, measured from submitted_at.
  util::CancelSource cancel_source;
  std::chrono::steady_clock::time_point submitted_at;

  mutable util::Mutex mu;
  util::CondVar cv;
  JobStatus status GUARDED_BY(mu) = JobStatus::kQueued;
  std::optional<api::DistillRun> distill_run GUARDED_BY(mu);
  std::optional<api::InterpretRun> interpret_run GUARDED_BY(mu);
  // Set when status == kFailed: the message for polling callers, and the
  // original exception so result accessors rethrow the submitted
  // pipeline's own error type (unknown key stays std::invalid_argument).
  std::string error GUARDED_BY(mu);
  std::exception_ptr exception GUARDED_BY(mu);
};

}  // namespace detail

class JobHandle {
 public:
  JobHandle() = default;  // invalid until assigned from a submit_*()

  [[nodiscard]] bool valid() const { return state_ != nullptr; }
  [[nodiscard]] JobId id() const;
  [[nodiscard]] JobKind kind() const;
  [[nodiscard]] const std::string& scenario() const;

  // Current status (non-blocking poll).
  [[nodiscard]] JobStatus status() const;
  [[nodiscard]] bool finished() const { return is_terminal(status()); }

  // Collection-round/episode counters (distill) or mask-optimization step
  // counters (interpret); non-blocking, lock-free poll — see JobProgress
  // for the exact semantics.
  [[nodiscard]] JobProgress progress() const;

  // Blocks until the job reaches a terminal state.
  void wait() const;

  // Blocks until the job reaches a terminal state or `timeout` elapses;
  // returns the status observed at that point (possibly still kQueued or
  // kRunning on timeout — the job itself is unaffected).
  [[nodiscard]] JobStatus wait_for(std::chrono::nanoseconds timeout) const;

  // Requests cancellation. Returns true when the request was delivered to
  // a non-terminal job: a queued job flips to kCancelled immediately; a
  // running job's CancelToken fires and the pipeline stops at its next
  // checkpoint (it may still finish kDone if it was already past the last
  // one). Returns false for jobs already in a terminal state.
  bool cancel() const;

  // Result accessors: wait(), then return the run or throw — the failed
  // job's own exception (rethrown as submitted, e.g. std::invalid_argument
  // for an unknown scenario key), or std::logic_error when the job was
  // cancelled or is of the other kind. The references borrow the job
  // table's storage: they stay valid while any handle to the job exists
  // AND nobody calls take_*() — like std::future::get(), taking is a
  // single-consumer operation, so readers that share a job with a taker
  // must coordinate (or copy what they need while the borrow is live).
  [[nodiscard]] const api::DistillRun& distill_run() const;
  [[nodiscard]] const api::InterpretRun& interpret_run() const;

  // Moves the run out of the job table (runs hold move-only pieces, e.g.
  // the fitted DecisionTree). Single consumer: afterwards the accessors
  // above throw for every handle to this job.
  [[nodiscard]] api::DistillRun take_distill_run();
  [[nodiscard]] api::InterpretRun take_interpret_run();

  // Failure message when status() == kFailed, empty otherwise.
  [[nodiscard]] std::string error() const;

 private:
  friend class Service;
  explicit JobHandle(std::shared_ptr<detail::JobState> state)
      : state_(std::move(state)) {}

  std::shared_ptr<detail::JobState> state_;
};

}  // namespace metis::serve
