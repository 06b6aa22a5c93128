#include "metis/serve/service.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "metis/core/distill.h"
#include "metis/core/hypergraph_interpreter.h"
#include "metis/nn/arena.h"
#include "metis/util/check.h"

namespace metis::serve {

Service::Service(ServiceConfig config, DistillDoneHook on_distilled)
    : config_(std::move(config)),
      on_distilled_(std::move(on_distilled)),
      pool_(std::max<std::size_t>(config_.workers, 1)) {}

Service::~Service() {
  // Flip the flag first: workers that pick up still-queued jobs mark them
  // cancelled instead of running them. pool_ is the last member, so its
  // destructor (drain + join) runs before anything else is torn down.
  stopping_.store(true);
}

const api::ScenarioRegistry& Service::registry() const {
  return config_.registry != nullptr ? *config_.registry
                                     : api::ScenarioRegistry::global();
}

JobHandle Service::enqueue(std::shared_ptr<detail::JobState> state) {
  {
    util::MutexLock lock(table_mu_);
    state->id = next_id_++;
    table_.emplace(state->id, state);
  }
  JobHandle handle(state);
  pool_.submit([this, state = std::move(state)] { run_job(state); });
  return handle;
}

void Service::retire(JobId id) {
  util::MutexLock lock(table_mu_);
  if (!table_.contains(id)) return;  // forgotten already
  finished_.push_back(id);
  while (finished_.size() > kMaxFinishedJobs) {
    table_.erase(finished_.front());
    finished_.pop_front();
  }
}

namespace {

// Deadlines are measured from submission (queue time counts against the
// budget — a deadline is a promise to the caller, not to the worker).
// `deadline_ms` comes off the wire unchecked: a delay past the last
// instant steady_clock can represent means no deadline, and is compared
// before any chrono arithmetic so the sum cannot overflow.
void arm_deadline(detail::JobState& state,
                  const std::optional<std::uint64_t>& deadline_ms) {
  using std::chrono::steady_clock;
  state.submitted_at = steady_clock::now();
  if (!deadline_ms.has_value()) return;
  const auto headroom = std::chrono::duration_cast<std::chrono::milliseconds>(
      steady_clock::time_point::max() - state.submitted_at);
  if (*deadline_ms > static_cast<std::uint64_t>(headroom.count())) return;
  state.cancel_source.set_deadline(
      state.submitted_at +
      std::chrono::milliseconds(static_cast<std::int64_t>(*deadline_ms)));
}

// Throws std::invalid_argument if a set override is 0 or exceeds its cap.
void check_limit(const std::optional<std::size_t>& value, std::size_t cap,
                 const char* field) {
  if (value.has_value() && (*value == 0 || *value > cap)) {
    throw std::invalid_argument("job limits: " + std::string(field) + " = " +
                                std::to_string(*value) + " is outside [1, " +
                                std::to_string(cap) + "]");
  }
}

}  // namespace

JobHandle Service::submit_distill(std::string_view key,
                                  const api::DistillOverrides& overrides) {
  check_limit(overrides.episodes, kMaxEpisodes, "episodes");
  check_limit(overrides.max_steps, kMaxSteps, "max_steps");
  check_limit(overrides.dagger_iterations, kMaxDaggerIterations,
              "dagger_iterations");
  check_limit(overrides.max_leaves, kMaxLeaves, "max_leaves");
  auto state = std::make_shared<detail::JobState>();
  state->kind = JobKind::kDistill;
  state->scenario = std::string(key);
  state->distill_overrides = overrides;
  arm_deadline(*state, overrides.deadline_ms);
  return enqueue(std::move(state));
}

JobHandle Service::submit_interpret(std::string_view key,
                                    const api::InterpretOverrides& overrides) {
  check_limit(overrides.steps, kMaxInterpretSteps, "steps");
  auto state = std::make_shared<detail::JobState>();
  state->kind = JobKind::kInterpret;
  state->scenario = std::string(key);
  state->interpret_overrides = overrides;
  arm_deadline(*state, overrides.deadline_ms);
  return enqueue(std::move(state));
}

JobHandle Service::find(JobId id) const {
  util::MutexLock lock(table_mu_);
  auto it = table_.find(id);
  return it == table_.end() ? JobHandle() : JobHandle(it->second);
}

std::vector<JobHandle> Service::jobs() const {
  util::MutexLock lock(table_mu_);
  std::vector<JobHandle> out;
  out.reserve(table_.size());
  for (const auto& [id, state] : table_) out.push_back(JobHandle(state));
  return out;
}

void Service::wait_all() {
  // Waiting can race new submissions; loop until a full snapshot is
  // terminal.
  for (;;) {
    const std::vector<JobHandle> snapshot = jobs();
    for (const auto& j : snapshot) j.wait();
    bool all_terminal = true;
    for (const auto& j : jobs()) all_terminal = all_terminal && j.finished();
    if (all_terminal) return;
  }
}

bool Service::forget(JobId id) {
  util::MutexLock lock(table_mu_);
  auto it = table_.find(id);
  if (it == table_.end()) return false;
  {
    util::MutexLock state_lock(it->second->mu);
    if (!is_terminal(it->second->status)) return false;
  }
  table_.erase(it);
  std::erase(finished_, id);
  return true;
}

void Service::clear_cache() {
  util::MutexLock lock(cache_mu_);
  // Slots shared with in-flight jobs stay alive through their shared_ptr;
  // future jobs start from fresh slots (and rebuild).
  local_.clear();
  global_.clear();
}

namespace {

// The slot for `key` in one of the cache maps, created on first use.
// Called with cache_mu_ held.
template <typename SlotMap>
typename SlotMap::mapped_type find_or_add(SlotMap& map,
                                          const std::string& key) {
  auto& slot = map[key];
  if (slot == nullptr) {
    slot = std::make_shared<typename SlotMap::mapped_type::element_type>();
  }
  return slot;
}

}  // namespace

std::shared_ptr<Service::LocalSlot> Service::local_slot(
    const std::string& key) {
  util::MutexLock lock(cache_mu_);
  return find_or_add(local_, key);
}

std::shared_ptr<Service::GlobalSlot> Service::global_slot(
    const std::string& key) {
  util::MutexLock lock(cache_mu_);
  return find_or_add(global_, key);
}

namespace {

// Moves a dequeued job to kRunning; false, with the job left terminal,
// when it must not start.
bool start_job(detail::JobState& state, const util::CancelToken& token,
               const std::atomic<bool>& stopping) {
  util::MutexLock lock(state.mu);
  if (state.status != JobStatus::kQueued) return false;  // cancelled
  if (stopping.load()) {
    state.status = JobStatus::kCancelled;
    state.cv.notify_all();
    return false;
  }
  if (token.cancelled()) {
    // The deadline expired (or cancel() raced the dequeue) while the
    // job sat in the queue: never start the pipeline.
    state.status =
        token.timed_out() ? JobStatus::kTimedOut : JobStatus::kCancelled;
    state.cv.notify_all();
    return false;
  }
  state.status = JobStatus::kRunning;
  return true;
}

}  // namespace

void Service::run_job(const std::shared_ptr<detail::JobState>& state) {
  const util::CancelToken token = state->cancel_source.token();
  if (!start_job(*state, token, stopping_)) {
    retire(state->id);
    return;
  }

  JobStatus final_status = JobStatus::kDone;
  std::string error;
  std::exception_ptr exception;
  api::DistillRun distill_run;
  api::InterpretRun interpret_run;
  // One tensor arena per job on this worker thread: teacher training,
  // collection rounds, and mask-optimization steps all recycle their
  // per-iteration buffers instead of hammering malloc. Results (weights,
  // datasets, masks) outliving the job are plain operator-new blocks.
  nn::arena::Scope arena;
  try {
    if (state->kind == JobKind::kDistill) {
      run_distill(*state, distill_run);
      if (on_distilled_) on_distilled_(state->scenario, distill_run);
    } else {
      run_interpret(*state, interpret_run);
    }
  } catch (const util::CancelledError& e) {
    // Cooperative stop at a checkpoint: the worker slot frees right here,
    // and partial pipeline output is discarded (results stay all-or-
    // nothing). No error/exception recorded — these are not failures.
    final_status =
        e.timed_out() ? JobStatus::kTimedOut : JobStatus::kCancelled;
  } catch (const std::exception& e) {
    final_status = JobStatus::kFailed;
    error = e.what();
    exception = std::current_exception();
  } catch (...) {
    final_status = JobStatus::kFailed;
    error = "unknown error";
    exception = std::current_exception();
  }

  // Retired before its status flips, so whoever sees a job that ran
  // finish also sees the retention rule applied.
  retire(state->id);
  {
    util::MutexLock lock(state->mu);
    if (final_status == JobStatus::kDone) {
      if (state->kind == JobKind::kDistill) {
        state->distill_run = std::move(distill_run);
      } else {
        state->interpret_run = std::move(interpret_run);
      }
    } else if (final_status == JobStatus::kFailed) {
      state->error = std::move(error);
      state->exception = exception;
    }
    state->status = final_status;
  }
  state->cv.notify_all();
}

void Service::run_distill(const detail::JobState& state,
                          api::DistillRun& out) {
  const api::Scenario& scenario = registry().get(state.scenario);
  const auto slot = local_slot(scenario.key());

  // Build (or reuse) the scenario's system under the per-key lock: the
  // first job for a key pays the teacher training, concurrent jobs for
  // the same key block here and share it, other keys proceed in parallel.
  api::LocalSystem sys;
  {
    util::MutexLock lock(slot->build_mu);
    if (!slot->built) {
      slot->system = scenario.make_local(config_.options);
      MET_CHECK_MSG(
          slot->system.teacher != nullptr && slot->system.env != nullptr,
          "scenario '" + scenario.key() + "' built an incomplete local system");
      slot->built = true;
    }
    sys = slot->system;  // shared_ptr copies
  }

  core::DistillConfig cfg = sys.distill_defaults;
  api::apply_overrides(cfg, state.distill_overrides);

  // Progress counters for JobHandle::progress(). The callbacks capture
  // only the counters (not the job state), so storing them in the run's
  // config cannot create a shared_ptr cycle; they are stripped from the
  // returned config below anyway.
  // Ordering contract with JobHandle::progress(): the totals are stored
  // BEFORE collection starts, and every done-counter bump is a release,
  // so a reader that acquires a non-zero done count is guaranteed to see
  // the totals — snapshots can never show done > total.
  const std::shared_ptr<detail::ProgressCounters> progress = state.progress;
  progress->rounds_total.store(cfg.dagger_iterations,
                               std::memory_order_relaxed);
  progress->episodes_total.store(cfg.dagger_iterations * cfg.collect.episodes,
                                 std::memory_order_relaxed);
  cfg.collect.on_episode_done = [progress] {
    progress->episodes_done.fetch_add(1, std::memory_order_release);
  };
  cfg.on_round_done = [progress] {
    progress->rounds_done.fetch_add(1, std::memory_order_release);
  };

  // Rollouts mutate the env, so the job (and the run it returns) owns a
  // clone of it; the teacher is shared read-only.
  sys.env = sys.env->clone();
  MET_CHECK(sys.env != nullptr);

  out.scenario = scenario.key();
  out.system = sys;
  out.config = cfg;
  // Re-running the returned config must not tick this job's counters —
  // nor observe this job's (long-dead) cancellation token.
  out.config.collect.on_episode_done = nullptr;
  out.config.on_round_done = nullptr;
  // Thread the job's token through the pipeline's round/episode
  // checkpoints (attached last so it never leaks into out.config).
  cfg.cancel = state.cancel_source.token();
  out.result = core::distill_policy(*sys.teacher, *sys.env, cfg);
}

void Service::run_interpret(const detail::JobState& state,
                            api::InterpretRun& out) {
  const api::Scenario& scenario = registry().get(state.scenario);
  const auto slot = global_slot(scenario.key());

  api::GlobalSystem sys;
  {
    util::MutexLock lock(slot->build_mu);
    if (!slot->built) {
      slot->system = scenario.make_global(config_.options);
      MET_CHECK_MSG(slot->system.model != nullptr,
                    "scenario '" + scenario.key() +
                        "' built an incomplete global system");
      slot->built = true;
    }
    sys = slot->system;
  }

  core::InterpretConfig cfg = sys.interpret_defaults;
  api::apply_overrides(cfg, state.interpret_overrides);

  // Step counters for JobHandle::progress(), under the same ordering
  // contract as the distill counters: the total is stored BEFORE the
  // optimization starts and every bump is a release, so a reader that
  // acquires a non-zero done count also sees the total.
  const std::shared_ptr<detail::ProgressCounters> progress = state.progress;
  progress->steps_total.store(cfg.steps, std::memory_order_relaxed);
  cfg.on_step = [progress] {
    progress->steps_done.fetch_add(1, std::memory_order_release);
  };

  out.scenario = scenario.key();
  out.system = sys;

  // The Figure-6 search backpropagates through the model, accumulating
  // (unused) gradients into its weight nodes — racy if shared. Deep-clone
  // the model per job so N same-key searches run on N workers at once;
  // the cached build (and its keepalive, which clones may borrow
  // read-only state from) stays alive in `sys`.
  const std::shared_ptr<core::MaskableModel> model = sys.model->clone();
  MET_CHECK(model != nullptr);
  // Thread the job's token through the mask-step checkpoints.
  cfg.cancel = state.cancel_source.token();
  out.result = core::find_critical_connections(*model, cfg);
  // Re-running the returned config must not tick this job's counters —
  // nor observe this job's cancellation token.
  cfg.on_step = nullptr;
  cfg.cancel = util::CancelToken();
  out.config = std::move(cfg);
}

}  // namespace metis::serve
