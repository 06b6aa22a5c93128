// Tests for the serve-path redesign: trace collection checked bit for bit
// against the scalar oracle (tests/collect_oracle.h), the asynchronous job
// Service (thread-safe job table, shared per-scenario builds and teachers,
// cancellation), the fused act_and_values_multi teacher path, and
// thread-safe ScenarioRegistry access.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cstring>
#include <functional>
#include <future>
#include <limits>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <vector>

#include "metis/abr/distill_adapter.h"
#include "metis/abr/env.h"
#include "metis/abr/trace_gen.h"
#include "metis/api/interpreter.h"
#include "metis/api/registry.h"
#include "metis/core/lime.h"
#include "metis/core/trace_collector.h"
#include "metis/net/client.h"
#include "metis/nn/mlp.h"
#include "metis/serve/server.h"
#include "metis/serve/service.h"
#include "metis/tree/tree_io.h"
#include "metis/util/isa.h"

#include "collect_oracle.h"

namespace metis {
namespace {

// ---- fixtures ---------------------------------------------------------------

// Rule policy over a 1-D feature; cheap enough to hammer from many threads.
class RuleTeacher final : public core::Teacher {
 public:
  std::size_t action_count() const override { return 2; }
  std::size_t act(std::span<const double> state) const override {
    return state[0] > 0.5 ? 1 : 0;
  }
  double value(std::span<const double>) const override { return 0.0; }
};

// Stochastic episodes that honour the episode-determinism contract: every
// random draw comes from Rng::derive(seed, episode), so episode k replays
// identically on any env clone.
class SplitLineEnv final : public core::RolloutEnv {
 public:
  explicit SplitLineEnv(std::uint64_t seed) : seed_(seed) {}

  std::size_t action_count() const override { return 2; }
  std::vector<double> reset(std::size_t episode) override {
    rng_ = metis::Rng::derive(seed_, episode);
    t_ = 0;
    x_ = rng_.uniform();
    return {x_, 1.0 - x_};
  }
  nn::StepResult step(std::size_t) override {
    x_ = rng_.uniform();
    ++t_;
    nn::StepResult sr;
    sr.done = t_ >= 25;
    sr.next_state = {x_, 1.0 - x_};
    return sr;
  }
  std::vector<double> interpretable_features() const override { return {x_}; }
  std::shared_ptr<core::RolloutEnv> clone() const override {
    return std::make_shared<SplitLineEnv>(seed_);
  }

 private:
  std::uint64_t seed_;
  metis::Rng rng_{0};
  double x_ = 0.0;
  std::size_t t_ = 0;
};

class LineScenario final : public api::Scenario {
 public:
  explicit LineScenario(std::string key, std::atomic<int>* builds = nullptr)
      : key_(std::move(key)), builds_(builds) {}
  std::string key() const override { return key_; }
  std::string description() const override { return "synthetic rule policy"; }
  api::LocalSystem make_local(const api::ScenarioOptions&) const override {
    if (builds_ != nullptr) ++*builds_;
    api::LocalSystem sys;
    sys.teacher = std::make_shared<RuleTeacher>();
    sys.env = std::make_shared<SplitLineEnv>(77);
    sys.distill_defaults.collect.episodes = 6;
    sys.distill_defaults.collect.max_steps = 25;
    sys.distill_defaults.dagger_iterations = 2;
    sys.distill_defaults.max_leaves = 8;
    sys.distill_defaults.feature_names = {"x"};
    return sys;
  }

 private:
  std::string key_;
  std::atomic<int>* builds_;
};

void expect_identical(const std::vector<core::CollectedSample>& a,
                      const std::vector<core::CollectedSample>& b,
                      const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].action, b[i].action) << what << " sample " << i;
    ASSERT_EQ(a[i].weight, b[i].weight) << what << " sample " << i;  // bitwise
    ASSERT_EQ(a[i].features, b[i].features) << what << " sample " << i;
  }
}

// ---- collection: the lockstep round matches the scalar oracle --------------

// One row of the collection battery: a teacher/env pair, a round config,
// and an optional DAgger student. `make_env` builds a fresh env so the
// oracle and the engine start from the same construction.
struct CollectCase {
  std::string name;
  std::shared_ptr<core::Teacher> teacher;
  std::function<std::unique_ptr<core::RolloutEnv>()> make_env;
  core::CollectConfig config;
  core::StudentPolicy student;  // empty = the teacher drives
  std::size_t episode_offset = 0;
  std::size_t min_samples = 0;
  bool expect_nonuniform_weights = false;
  bool expect_takeovers = false;  // the student is skipped on some steps
};

// Small ABR world shared by the Eq. 1 rows: untrained Pensieve-shaped
// teacher (collection does not care about weight values) over a short
// synthetic corpus with lookahead, so with Eq. 1 on every state sends its
// [s, s'_1..s'_A] group.
struct AbrWorld {
  abr::Video video{12, 3};
  abr::AbrEnv env;
  metis::Rng rng{36};
  nn::PolicyNet net{abr::kStateDim, 16, 1, 6, rng};

  AbrWorld() : env(video, corpus()) {}
  static std::vector<abr::NetworkTrace> corpus() {
    abr::TraceGenConfig tcfg;
    tcfg.duration_seconds = 200.0;
    return abr::generate_corpus(tcfg, 3, 11);
  }
};

std::vector<CollectCase> collect_battery(AbrWorld& abr_world) {
  std::vector<CollectCase> cases;
  const auto rule = std::make_shared<RuleTeacher>();

  CollectCase teacher_driven;
  teacher_driven.name = "teacher-driven";
  teacher_driven.teacher = rule;
  teacher_driven.make_env = [] { return std::make_unique<SplitLineEnv>(123); };
  teacher_driven.config.episodes = 9;
  teacher_driven.config.max_steps = 25;
  teacher_driven.min_samples = 100;
  cases.push_back(teacher_driven);

  // The full Eq. 1 path (lookahead + fused value probes) over the real
  // ABR environment.
  CollectCase eq1;
  eq1.name = "abr eq1 fused";
  eq1.teacher = std::make_shared<core::PolicyNetTeacher>(&abr_world.net);
  eq1.make_env = [&abr_world] {
    return std::make_unique<abr::AbrRolloutEnv>(&abr_world.env);
  };
  eq1.config.episodes = 6;
  eq1.config.max_steps = 12;
  eq1.min_samples = 40;
  eq1.expect_nonuniform_weights = true;

  // DAgger round on the same world: bitrate choices move the session, and
  // a student that keeps picking a bitrate the teacher rarely does forces
  // repeated teacher takeovers mid-episode.
  CollectCase dagger = eq1;
  dagger.name = "dagger student with takeovers";
  dagger.config.episodes = 7;
  dagger.student = [](std::span<const double> f) {
    return static_cast<std::size_t>(f[0] * 10.0) % 6;
  };
  dagger.episode_offset = 40;
  dagger.min_samples = 60;
  dagger.expect_takeovers = true;
  cases.push_back(dagger);
  cases.push_back(eq1);

  // Eq. 1 off on the same world: 1-row groups, uniform weights.
  CollectCase eq1_off = eq1;
  eq1_off.name = "abr eq1 off";
  eq1_off.config.weight_by_advantage = false;
  eq1_off.expect_nonuniform_weights = false;
  cases.push_back(eq1_off);
  return cases;
}

TEST(Collection, EveryCaseBitwiseIdenticalToOracle) {
  AbrWorld abr_world;
  for (CollectCase& c : collect_battery(abr_world)) {
    // Counts student queries, so a case can show takeovers happened.
    std::size_t student_calls = 0;
    const core::StudentPolicy counted = [&](std::span<const double> f) {
      ++student_calls;
      return c.student(f);
    };
    const core::StudentPolicy* student = c.student ? &counted : nullptr;
    const auto oracle_env = c.make_env();
    const auto reference = oracle::collect_traces(
        *c.teacher, *oracle_env, c.config, student, c.episode_offset);
    ASSERT_GT(reference.size(), c.min_samples) << c.name;
    if (c.expect_takeovers) {
      EXPECT_GT(student_calls, 0u) << c.name;
      EXPECT_LT(student_calls, reference.size() * 3 / 4) << c.name;
    }
    if (c.expect_nonuniform_weights) {
      bool nonuniform = false;
      for (const auto& s : reference) nonuniform |= s.weight != 1.0;
      EXPECT_TRUE(nonuniform) << c.name << ": Eq. 1 weighting should be active";
    }
    for (const isa::Level level : isa::supported_levels()) {
      isa::ScopedLevel scope(level);
      const auto env = c.make_env();
      const auto collected = core::collect_traces(
          *c.teacher, *env, c.config, student, c.episode_offset);
      expect_identical(reference, collected,
                       c.name + " / " + isa::to_string(level));
    }
  }
}

// Counts teacher queries by delegation, to pin the claimed win: a round
// asks the teacher one act_and_values_multi call per step, covering all
// its live episodes, and never a scalar act() or value(). It also keeps
// every batched question it was asked.
class CountingTeacher final : public core::Teacher {
 public:
  explicit CountingTeacher(const core::Teacher* inner) : inner_(inner) {}
  std::size_t action_count() const override { return inner_->action_count(); }
  std::size_t act(std::span<const double> s) const override {
    ++scalar_calls;
    return inner_->act(s);
  }
  double value(std::span<const double> s) const override {
    ++scalar_calls;
    return inner_->value(s);
  }
  std::vector<ActValues> act_and_values_multi(
      const std::vector<std::vector<double>>& states,
      std::span<const std::size_t> group_sizes) const override {
    ++multi_calls;
    rows += states.size();
    questions.push_back(
        {states, {group_sizes.begin(), group_sizes.end()}});
    return inner_->act_and_values_multi(states, group_sizes);
  }

  struct Question {
    std::vector<std::vector<double>> states;
    std::vector<std::size_t> group_sizes;
  };

  mutable std::size_t multi_calls = 0;
  mutable std::size_t scalar_calls = 0;
  mutable std::size_t rows = 0;
  mutable std::vector<Question> questions;

 private:
  const core::Teacher* inner_;
};

TEST(Collection, TrunkForwardsCollapseFromEpisodesXStepsToSteps) {
  AbrWorld world;
  core::PolicyNetTeacher abr_teacher(&world.net);
  metis::Rng rng(37);
  nn::PolicyNet line_net(/*state_dim=*/2, 8, 1, 2, rng);
  core::PolicyNetTeacher line_teacher(&line_net);
  struct Case {
    std::string name;
    const core::Teacher* teacher;
    std::function<std::unique_ptr<core::RolloutEnv>()> make_env;
    bool weight_by_advantage;
    std::size_t max_steps;       // every episode runs exactly this long
    std::size_t rows_per_group;  // 1 + A lookahead rows, or 1
  };
  const auto abr_env = [&world] {
    return std::make_unique<abr::AbrRolloutEnv>(&world.env);
  };
  const Case cases[] = {
      {"abr eq1", &abr_teacher, abr_env, true, 12, 7},
      {"abr eq1 off", &abr_teacher, abr_env, false, 12, 1},
      {"no lookahead", &line_teacher,
       [] { return std::make_unique<SplitLineEnv>(55); }, true, 25, 1},
  };
  for (const Case& c : cases) {
    core::CollectConfig cc;
    cc.episodes = 6;
    cc.max_steps = c.max_steps;
    cc.weight_by_advantage = c.weight_by_advantage;
    const auto reference =
        oracle::collect_traces(*c.teacher, *c.make_env(), cc, nullptr, 0);

    CountingTeacher counting(c.teacher);
    const auto samples =
        core::collect_traces(counting, *c.make_env(), cc, nullptr, 0);
    expect_identical(reference, samples, c.name);
    ASSERT_EQ(samples.size(), cc.episodes * cc.max_steps) << c.name;
    // The round steps max_steps times and asks one question a step:
    // calls scale with steps, not with (episode, step) samples.
    EXPECT_EQ(counting.multi_calls, cc.max_steps) << c.name;
    EXPECT_EQ(counting.rows, samples.size() * c.rows_per_group)
        << c.name;
    EXPECT_EQ(counting.scalar_calls, 0u) << c.name;
  }
}

// The oracle comparison above cannot see a last-bit error in the
// teacher's forward: on this untrained net the Eq. 1 weights V(s) - min Q
// are dominated by the rewards and absorb it, and actions are argmaxes.
// So the teacher's answers are checked themselves. Over every question the
// ABR battery asks (each acting state plus its lookahead successors, whose
// V gives Q), the batched forward at every ISA level must give the action
// and V of the scalar forward at kReference, bit for bit.
TEST(Collection, TeacherValuesAtEveryLevelMatchTheReferenceForward) {
  AbrWorld abr_world;
  std::size_t values_checked = 0;
  for (CollectCase& c : collect_battery(abr_world)) {
    if (dynamic_cast<const core::PolicyNetTeacher*>(c.teacher.get()) ==
        nullptr) {
      continue;  // a rule teacher has no forward to check
    }
    CountingTeacher recorder(c.teacher.get());
    const auto env = c.make_env();
    const core::StudentPolicy* student = c.student ? &c.student : nullptr;
    (void)core::collect_traces(recorder, *env, c.config, student,
                               c.episode_offset);
    ASSERT_FALSE(recorder.questions.empty()) << c.name;

    for (const auto& q : recorder.questions) {
      std::vector<std::size_t> actions;
      std::vector<double> values;
      {
        isa::ScopedLevel scope(isa::Level::kReference);
        std::size_t base = 0;
        for (std::size_t g : q.group_sizes) {
          actions.push_back(c.teacher->act(q.states[base]));
          for (std::size_t r = base; r < base + g; ++r) {
            values.push_back(c.teacher->value(q.states[r]));
          }
          base += g;
        }
      }
      for (const isa::Level level : isa::supported_levels()) {
        isa::ScopedLevel scope(level);
        const auto got =
            c.teacher->act_and_values_multi(q.states, q.group_sizes);
        ASSERT_EQ(got.size(), q.group_sizes.size());
        std::size_t row = 0;
        for (std::size_t i = 0; i < got.size(); ++i) {
          EXPECT_EQ(got[i].action, actions[i])
              << c.name << " / " << isa::to_string(level);
          ASSERT_EQ(got[i].values.size(), q.group_sizes[i]);
          for (double v : got[i].values) {
            ASSERT_EQ(std::bit_cast<std::uint64_t>(v),
                      std::bit_cast<std::uint64_t>(values[row]))
                << c.name << " / " << isa::to_string(level) << " row " << row
                << ": " << v << " vs " << values[row];
            ++row;
          }
        }
        values_checked += row;
      }
    }
  }
  EXPECT_GT(values_checked, 1000u);
}

// ---- episode completion and cancellation -----------------------------------

TEST(Collection, ReportsEveryEpisodeDone) {
  RuleTeacher teacher;
  SplitLineEnv env(55);
  // 25 steps: every episode terminates (done); 10: every one exhausts
  // max_steps instead.
  for (std::size_t max_steps : {25u, 10u}) {
    core::CollectConfig cc;
    cc.episodes = 5;
    cc.max_steps = max_steps;
    std::size_t done = 0;
    cc.on_episode_done = [&done] { ++done; };
    const auto samples = core::collect_traces(teacher, env, cc, nullptr, 0);
    EXPECT_EQ(done, cc.episodes) << "max_steps=" << max_steps;
    EXPECT_EQ(samples.size(), cc.episodes * max_steps);
  }
}

TEST(Collection, CancelledMidRoundThrows) {
  RuleTeacher teacher;
  SplitLineEnv env(55);
  util::CancelSource source;
  core::CollectConfig cc;
  cc.episodes = 5;
  cc.max_steps = 25;
  cc.cancel = source.token();
  std::size_t done = 0;
  cc.on_episode_done = [&done] { ++done; };
  // The student agrees with the teacher, so it drives every step of every
  // episode; it cancels on its 10th query. The round checks the token
  // before each step, so it runs 2 of 25 steps and no episode finishes.
  std::size_t queries = 0;
  const core::StudentPolicy student = [&](std::span<const double> f) {
    if (++queries == 10) source.cancel();
    return f[0] > 0.5 ? std::size_t{1} : std::size_t{0};
  };
  EXPECT_THROW((void)core::collect_traces(teacher, env, cc, &student, 0),
               util::CancelledError);
  EXPECT_EQ(done, 0u);
  EXPECT_EQ(queries, 10u);
}

// ---- fused act_and_values_multi ---------------------------------------------

TEST(FusedActValues, MatchesSeparateCallsBitwise) {
  metis::Rng rng(91);
  nn::PolicyNet net(/*state_dim=*/9, /*hidden_dim=*/16, /*hidden_layers=*/2,
                    /*action_count=*/5, rng);
  core::PolicyNetTeacher teacher(&net);

  std::vector<std::vector<double>> batch(7, std::vector<double>(9));
  for (auto& row : batch) {
    for (auto& v : row) v = rng.uniform(-1.0, 1.0);
  }

  const std::size_t group[] = {batch.size()};
  const auto fused = teacher.act_and_values_multi(batch, group);
  ASSERT_EQ(fused.size(), 1u);
  EXPECT_EQ(fused[0].action, teacher.act(batch.front()));
  ASSERT_EQ(fused[0].values.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(fused[0].values[i], teacher.value(batch[i])) << i;  // bitwise
  }
}

TEST(FusedActValues, SkipFeatureStructureAlsoMatches) {
  metis::Rng rng(92);
  nn::PolicyNet net(6, 12, 2, 4, rng, /*skip_feature=*/1);
  core::PolicyNetTeacher teacher(&net);
  std::vector<std::vector<double>> batch(4, std::vector<double>(6));
  for (auto& row : batch) {
    for (auto& v : row) v = rng.uniform(-1.0, 1.0);
  }
  const std::size_t group[] = {batch.size()};
  const auto fused = teacher.act_and_values_multi(batch, group);
  EXPECT_EQ(fused[0].action, teacher.act(batch.front()));
  EXPECT_EQ(fused[0].values[0], teacher.value(batch.front()));
}

// ---- Service ----------------------------------------------------------------

TEST(Service, MixedSubmitsFromManyThreadsLoseNothing) {
  api::ScenarioRegistry reg;
  reg.add(std::make_unique<LineScenario>("line-a"));
  reg.add(std::make_unique<LineScenario>("line-b"));
  reg.add(std::make_unique<LineScenario>("line-c"));

  serve::ServiceConfig cfg;
  cfg.workers = 4;
  cfg.registry = &reg;
  serve::Service svc(cfg);

  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPerThread = 6;
  std::vector<std::vector<serve::JobHandle>> handles(kThreads);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        const char* keys[] = {"line-a", "line-b", "line-c"};
        for (std::size_t i = 0; i < kPerThread; ++i) {
          handles[t].push_back(svc.submit_distill(keys[(t + i) % 3]));
        }
      });
    }
    for (auto& th : threads) th.join();
  }
  svc.wait_all();

  std::set<serve::JobId> ids;
  for (const auto& per_thread : handles) {
    for (const auto& h : per_thread) {
      EXPECT_EQ(h.status(), serve::JobStatus::kDone) << h.error();
      EXPECT_GT(h.distill_run().result.samples_collected, 0u);
      ids.insert(h.id());
    }
  }
  EXPECT_EQ(ids.size(), kThreads * kPerThread);  // no lost/duplicated ids
  EXPECT_EQ(svc.jobs().size(), kThreads * kPerThread);
  for (const auto& h : svc.jobs()) {
    EXPECT_TRUE(h.finished());
    EXPECT_TRUE(svc.find(h.id()).valid());
  }
  EXPECT_FALSE(svc.find(9999).valid());
}

TEST(Service, ConcurrentSameKeyJobsShareOneBuild) {
  std::atomic<int> builds_a{0};
  std::atomic<int> builds_b{0};
  api::ScenarioRegistry reg;
  reg.add(std::make_unique<LineScenario>("line-a", &builds_a));
  reg.add(std::make_unique<LineScenario>("line-b", &builds_b));

  serve::ServiceConfig cfg;
  cfg.workers = 4;
  cfg.registry = &reg;
  serve::Service svc(cfg);

  std::vector<serve::JobHandle> jobs;
  for (int i = 0; i < 4; ++i) jobs.push_back(svc.submit_distill("line-a"));
  for (int i = 0; i < 3; ++i) jobs.push_back(svc.submit_distill("line-b"));
  svc.wait_all();

  EXPECT_EQ(builds_a.load(), 1);  // 4 concurrent jobs, one teacher build
  EXPECT_EQ(builds_b.load(), 1);
  const core::Teacher* teacher_a = jobs[0].distill_run().system.teacher.get();
  for (int i = 1; i < 4; ++i) {
    EXPECT_EQ(jobs[i].distill_run().system.teacher.get(), teacher_a);
  }
  EXPECT_NE(jobs[4].distill_run().system.teacher.get(), teacher_a);

  svc.clear_cache();
  auto fresh = svc.submit_distill("line-a");
  EXPECT_NE(fresh.distill_run().system.teacher.get(), teacher_a);
  EXPECT_EQ(builds_a.load(), 2);
}

// A scenario whose build blocks until released, to pin jobs in the queue.
class GatedScenario final : public api::Scenario {
 public:
  GatedScenario(std::string key, std::shared_future<void> gate)
      : key_(std::move(key)), gate_(std::move(gate)) {}
  std::string key() const override { return key_; }
  std::string description() const override { return "blocks until released"; }
  api::LocalSystem make_local(const api::ScenarioOptions&) const override {
    gate_.wait();
    api::LocalSystem sys;
    sys.teacher = std::make_shared<RuleTeacher>();
    sys.env = std::make_shared<SplitLineEnv>(7);
    sys.distill_defaults.collect.episodes = 2;
    sys.distill_defaults.collect.max_steps = 10;
    sys.distill_defaults.dagger_iterations = 1;
    sys.distill_defaults.feature_names = {"x"};
    return sys;
  }

 private:
  std::string key_;
  std::shared_future<void> gate_;
};

TEST(Service, CancelQueuedImmediatelyAndRunningCooperatively) {
  std::promise<void> release;
  api::ScenarioRegistry reg;
  reg.add(std::make_unique<GatedScenario>("gated",
                                          release.get_future().share()));

  serve::ServiceConfig cfg;
  cfg.workers = 1;  // one worker: the second submission must queue
  cfg.registry = &reg;
  serve::Service svc(cfg);

  auto running = svc.submit_distill("gated");
  auto queued = svc.submit_distill("gated");
  while (running.status() == serve::JobStatus::kQueued) {
    std::this_thread::yield();
  }
  EXPECT_EQ(queued.status(), serve::JobStatus::kQueued);

  EXPECT_TRUE(queued.cancel());
  EXPECT_EQ(queued.status(), serve::JobStatus::kCancelled);
  EXPECT_FALSE(queued.cancel());      // idempotent: already terminal

  // The running job is mid-build (gated): cancel() is delivered, and the
  // pipeline stops at its first checkpoint once the gate releases.
  EXPECT_TRUE(running.cancel());
  release.set_value();
  running.wait();
  EXPECT_EQ(running.status(), serve::JobStatus::kCancelled);
  EXPECT_FALSE(running.cancel());     // terminal now
  EXPECT_THROW((void)running.distill_run(), std::logic_error);
  EXPECT_THROW((void)queued.distill_run(), std::logic_error);
  svc.wait_all();  // terminal cancelled jobs must not wedge wait_all
}

TEST(Service, DeadlineTimesOutRunningJobAndFreesWorker) {
  std::promise<void> release;
  api::ScenarioRegistry reg;
  reg.add(std::make_unique<GatedScenario>("gated",
                                          release.get_future().share()));
  reg.add(std::make_unique<LineScenario>("line"));

  serve::ServiceConfig cfg;
  cfg.workers = 1;
  cfg.registry = &reg;
  serve::Service svc(cfg);

  api::DistillOverrides overrides;
  overrides.deadline_ms = 1;  // expires while the build is gated
  auto job = svc.submit_distill("gated", overrides);
  while (job.status() == serve::JobStatus::kQueued) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));  // past deadline
  release.set_value();

  // Bounded wait: the pipeline must notice the expired deadline at its
  // first checkpoint and report kTimedOut, not kCancelled or kDone.
  const auto status = job.wait_for(std::chrono::seconds(30));
  EXPECT_EQ(status, serve::JobStatus::kTimedOut);
  EXPECT_THROW((void)job.distill_run(), std::logic_error);

  // The worker slot is free again: an undeadlined job completes normally.
  auto after = svc.submit_distill("line");
  EXPECT_EQ(after.wait_for(std::chrono::seconds(60)),
            serve::JobStatus::kDone);
}

TEST(Service, QueuedJobPastDeadlineNeverRuns) {
  std::promise<void> release;
  api::ScenarioRegistry reg;
  reg.add(std::make_unique<GatedScenario>("gated",
                                          release.get_future().share()));

  serve::ServiceConfig cfg;
  cfg.workers = 1;
  cfg.registry = &reg;
  serve::Service svc(cfg);

  auto running = svc.submit_distill("gated");
  api::DistillOverrides overrides;
  overrides.deadline_ms = 1;  // queue time counts against the deadline
  auto queued = svc.submit_distill("gated", overrides);
  while (running.status() == serve::JobStatus::kQueued) {
    std::this_thread::yield();
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  release.set_value();

  // The queued job's deadline expired before a worker picked it up: it
  // must end kTimedOut without ever building the scenario.
  EXPECT_EQ(queued.wait_for(std::chrono::seconds(30)),
            serve::JobStatus::kTimedOut);
  EXPECT_EQ(running.wait_for(std::chrono::seconds(60)),
            serve::JobStatus::kDone);
}

TEST(Service, WaitForReturnsCurrentStatusOnTimeout) {
  std::promise<void> release;
  api::ScenarioRegistry reg;
  reg.add(std::make_unique<GatedScenario>("gated",
                                          release.get_future().share()));

  serve::ServiceConfig cfg;
  cfg.workers = 1;
  cfg.registry = &reg;
  serve::Service svc(cfg);

  auto job = svc.submit_distill("gated");
  // Gated: a short bounded wait must come back non-terminal, not hang.
  const auto early = job.wait_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(serve::is_terminal(early));

  release.set_value();
  EXPECT_EQ(job.wait_for(std::chrono::seconds(60)), serve::JobStatus::kDone);
  // Terminal jobs return instantly, even with a zero budget.
  EXPECT_EQ(job.wait_for(std::chrono::nanoseconds::zero()),
            serve::JobStatus::kDone);
}

TEST(Service, CompletedJobsBitwiseIdenticalUnderArmedDeadline) {
  api::ScenarioRegistry reg;
  reg.add(std::make_unique<LineScenario>("line"));

  serve::ServiceConfig cfg;
  cfg.workers = 1;
  cfg.registry = &reg;
  serve::Service svc(cfg);

  auto plain = svc.submit_distill("line");
  plain.wait();
  ASSERT_EQ(plain.status(), serve::JobStatus::kDone);

  // Same job with a far-future deadline: the token is armed and polled at
  // every checkpoint, but never fires — the checkpoints must not perturb
  // the computation, so the fitted tree is byte-identical.
  api::DistillOverrides overrides;
  overrides.deadline_ms = 10'000'000;
  auto armed = svc.submit_distill("line", overrides);
  armed.wait();
  ASSERT_EQ(armed.status(), serve::JobStatus::kDone);

  EXPECT_EQ(tree::serialize(armed.distill_run().result.tree),
            tree::serialize(plain.distill_run().result.tree));
  EXPECT_EQ(armed.distill_run().result.fidelity,
            plain.distill_run().result.fidelity);  // bitwise (EXPECT_EQ)
}

TEST(Service, ForgetEvictsOnlyTerminalJobs) {
  std::promise<void> release;
  api::ScenarioRegistry reg;
  reg.add(std::make_unique<GatedScenario>("gated",
                                          release.get_future().share()));
  reg.add(std::make_unique<LineScenario>("line"));

  serve::ServiceConfig cfg;
  cfg.workers = 1;
  cfg.registry = &reg;
  serve::Service svc(cfg);

  auto blocked = svc.submit_distill("gated");
  auto queued = svc.submit_distill("line");
  EXPECT_FALSE(svc.forget(blocked.id()));  // running (or about to): kept
  EXPECT_FALSE(svc.forget(queued.id()));   // queued: kept
  EXPECT_EQ(svc.jobs().size(), 2u);

  release.set_value();
  svc.wait_all();
  EXPECT_TRUE(svc.forget(blocked.id()));
  EXPECT_FALSE(svc.forget(blocked.id()));  // already evicted
  EXPECT_FALSE(svc.find(blocked.id()).valid());
  // The live handle still owns the state and its (untaken) result.
  EXPECT_EQ(blocked.status(), serve::JobStatus::kDone);
  EXPECT_GT(blocked.distill_run().result.samples_collected, 0u);

  EXPECT_TRUE(svc.forget(queued.id()));  // the remaining 'line' job
  EXPECT_TRUE(svc.jobs().empty());
}

// The job table is bounded: thousands of tiny jobs, submitted over the
// wire by clients that connect, run one batch and hang up, leave at most
// Service::kMaxFinishedJobs finished jobs behind, the oldest evicted
// first. A job still running is never evicted, and handles already held
// stay valid.
TEST(Service, JobTableStaysBoundedUnderConnectionChurn) {
  std::promise<void> release;
  api::ScenarioRegistry reg;
  reg.add(std::make_unique<GatedScenario>("gated",
                                          release.get_future().share()));
  reg.add(std::make_unique<LineScenario>("line"));

  serve::ServerConfig cfg;
  cfg.unix_path =
      "/tmp/metis_serve_test_" + std::to_string(::getpid()) + ".sock";
  cfg.service.workers = 2;
  cfg.service.registry = &reg;
  cfg.auto_deploy_distilled = true;
  serve::Server server(cfg);
  server.start();
  serve::Service& svc = server.service();
  // Pins one worker for the whole soak; the other runs every tiny job.
  const serve::JobHandle pinned = svc.submit_distill("gated");

  constexpr std::size_t kCap = serve::Service::kMaxFinishedJobs;
  constexpr std::size_t kJobs = 3 * kCap;
  api::DistillOverrides tiny;
  tiny.episodes = 1;
  tiny.max_steps = 2;
  tiny.dagger_iterations = 1;
  tiny.max_leaves = 2;
  std::vector<serve::JobHandle> first_batch;
  std::size_t distilled = 0;
  for (std::size_t submitted = 0; submitted < kJobs;) {
    net::Client client = net::Client::connect_unix(cfg.unix_path);
    std::vector<serve::JobHandle> batch;
    // One connection's quota (max_jobs_per_connection) in flight at once.
    for (std::size_t i = 0; i < cfg.max_jobs_per_connection; ++i) {
      // Every third job names no scenario and fails: terminal all the same.
      const bool fails = submitted++ % 3 == 2;
      const auto id = client.submit_distill(fails ? "missing" : "line", tiny);
      ASSERT_TRUE(id.has_value());
      batch.push_back(svc.find(*id));
      ASSERT_TRUE(batch.back().valid());
      distilled += fails ? 0 : 1;
    }
    for (const serve::JobHandle& job : batch) job.wait();
    if (first_batch.empty()) first_batch = batch;
    ASSERT_LE(svc.jobs().size(), kCap + 1);  // + the pinned running job
  }

  EXPECT_EQ(svc.jobs().size(), kCap + 1);
  EXPECT_TRUE(svc.find(pinned.id()).valid());
  EXPECT_EQ(pinned.status(), serve::JobStatus::kRunning);
  for (const serve::JobHandle& job : first_batch) {
    EXPECT_FALSE(svc.find(job.id()).valid());  // the oldest went first
    EXPECT_TRUE(job.finished());
  }
  EXPECT_GT(first_batch.front().distill_run().result.samples_collected, 0u);
  EXPECT_EQ(server.stats().trees_auto_deployed, distilled);

  release.set_value();
  pinned.wait();
  EXPECT_EQ(pinned.status(), serve::JobStatus::kDone);
  EXPECT_EQ(svc.jobs().size(), kCap);
  server.stop();
}

TEST(Service, UnknownScenarioFailsThroughTheHandle) {
  serve::Service svc;
  auto job = svc.submit_distill("no-such-scenario");
  job.wait();
  EXPECT_EQ(job.status(), serve::JobStatus::kFailed);
  EXPECT_NE(job.error().find("unknown scenario"), std::string::npos);
  EXPECT_THROW((void)job.distill_run(), std::invalid_argument);
}

TEST(Service, DistillAndInterpretJobsRunConcurrently) {
  serve::ServiceConfig cfg;
  cfg.workers = 3;
  cfg.options.scale = 0.5;
  serve::Service svc(cfg);

  api::InterpretOverrides io;
  io.steps = 25;
  std::vector<serve::JobHandle> jobs;
  // flowsched distills; the hypergraph scenarios only interpret.
  jobs.push_back(svc.submit_distill("flowsched"));
  for (const char* key : {"cluster", "routing", "nfv", "cellular"}) {
    jobs.push_back(svc.submit_interpret(key, io));
  }
  svc.wait_all();
  for (auto& job : jobs) {
    ASSERT_EQ(job.status(), serve::JobStatus::kDone)
        << job.scenario() << ": " << job.error();
    if (job.kind() == serve::JobKind::kDistill) {
      EXPECT_GE(job.distill_run().result.fidelity, 0.99) << job.scenario();
    } else {
      EXPECT_EQ(job.interpret_run().config.steps, 25u) << job.scenario();
      EXPECT_FALSE(job.interpret_run().result.ranked.empty());
    }
  }
}

// ---- job progress -----------------------------------------------------------

TEST(Service, ProgressCountersReachTheirTotals) {
  api::ScenarioRegistry reg;
  reg.add(std::make_unique<LineScenario>("line"));

  serve::ServiceConfig cfg;
  cfg.workers = 1;
  cfg.registry = &reg;
  serve::Service svc(cfg);

  auto job = svc.submit_distill("line");
  const serve::JobProgress before = job.progress();  // may already be running
  EXPECT_LE(before.rounds_done, before.rounds_total);
  EXPECT_LE(before.episodes_done, before.episodes_total);

  job.wait();
  ASSERT_EQ(job.status(), serve::JobStatus::kDone) << job.error();
  const serve::JobProgress done = job.progress();
  // LineScenario: 2 DAgger iterations x 6 episodes.
  EXPECT_EQ(done.rounds_total, 2u);
  EXPECT_EQ(done.rounds_done, 2u);
  EXPECT_EQ(done.episodes_total, 12u);
  EXPECT_EQ(done.episodes_done, 12u);
}

// Regression for the concurrency audit: ProgressCounters are written by
// the job's worker thread and polled lock-free by any number of handle
// holders, under an explicit ordering contract — done counters bump with
// release AFTER the totals are stored, so an acquire reader that sees a
// non-zero done count must also see the totals, and a snapshot can never
// show done > total. Hammer progress() from several reader threads for
// the job's whole lifetime (the TSan CI leg runs this test too).
TEST(Service, ProgressSnapshotsNeverExceedTotalsUnderConcurrentReads) {
  api::ScenarioRegistry reg;
  reg.add(std::make_unique<LineScenario>("line"));

  serve::ServiceConfig cfg;
  cfg.workers = 1;
  cfg.registry = &reg;
  serve::Service svc(cfg);

  api::DistillOverrides o;
  o.episodes = 8;
  o.dagger_iterations = 3;
  auto job = svc.submit_distill("line", o);

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> violations{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      serve::JobProgress last;
      while (!done.load(std::memory_order_acquire)) {
        const serve::JobProgress p = job.progress();
        // Contract: done never exceeds total in any snapshot, and done
        // counters are monotonic across snapshots from one reader.
        if (p.rounds_done > p.rounds_total ||
            p.episodes_done > p.episodes_total ||
            p.steps_done > p.steps_total ||
            p.rounds_done < last.rounds_done ||
            p.episodes_done < last.episodes_done) {
          ++violations;
        }
        last = p;
      }
    });
  }

  job.wait();
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  ASSERT_EQ(job.status(), serve::JobStatus::kDone) << job.error();
  EXPECT_EQ(violations.load(), 0u);
  const serve::JobProgress final_p = job.progress();
  EXPECT_EQ(final_p.rounds_done, 3u);
  EXPECT_EQ(final_p.episodes_done, 24u);
  EXPECT_EQ(final_p.episodes_total, 24u);
}

TEST(Service, ProgressRespectsOverridesAndStaysZeroOnFailure) {
  api::ScenarioRegistry reg;
  reg.add(std::make_unique<LineScenario>("line"));
  serve::ServiceConfig cfg;
  cfg.registry = &reg;
  serve::Service svc(cfg);

  api::DistillOverrides o;
  o.episodes = 4;
  o.dagger_iterations = 3;
  auto job = svc.submit_distill("line", o);
  job.wait();
  ASSERT_EQ(job.status(), serve::JobStatus::kDone) << job.error();
  EXPECT_EQ(job.progress().rounds_done, 3u);
  EXPECT_EQ(job.progress().episodes_done, 12u);
  EXPECT_EQ(job.progress().episodes_total, 12u);

  auto failed = svc.submit_distill("no-such-scenario");
  failed.wait();
  EXPECT_EQ(failed.status(), serve::JobStatus::kFailed);
  EXPECT_EQ(failed.progress().rounds_total, 0u);
  EXPECT_EQ(failed.progress().episodes_done, 0u);
}

// ---- concurrent interpret jobs ----------------------------------------------

// A maskable model whose decisions() pass through a real Mlp — backward
// accumulates gradients into the net's weight nodes, the exact state
// concurrent same-key searches would race on. clone() hands each job an
// independent net.
class NetMaskModel final : public core::MaskableModel {
 public:
  explicit NetMaskModel(std::uint64_t seed) : graph_(4, 3) {
    graph_.connect(0, 0);
    graph_.connect(0, 1);
    graph_.connect(1, 1);
    graph_.connect(1, 2);
    graph_.connect(2, 2);
    graph_.connect(2, 3);
    graph_.validate();
    metis::Rng rng(seed);
    net_ = std::make_shared<nn::Mlp>(std::vector<std::size_t>{4, 8, 4},
                                     nn::Activation::kTanh, rng);
  }

  const hypergraph::Hypergraph& graph() const override { return graph_; }
  nn::Var decisions(const nn::Var& mask) const override {
    return nn::softmax_rows(net_->forward(mask));
  }
  std::shared_ptr<core::MaskableModel> clone() const override {
    auto copy = std::make_shared<NetMaskModel>(*this);
    copy->net_ = std::make_shared<nn::Mlp>(net_->clone());
    return copy;
  }

 private:
  hypergraph::Hypergraph graph_;
  std::shared_ptr<nn::Mlp> net_;
};

class NetMaskScenario final : public api::Scenario {
 public:
  explicit NetMaskScenario(std::string key) : key_(std::move(key)) {}
  std::string key() const override { return key_; }
  std::string description() const override { return "net-backed mask model"; }
  bool has_local() const override { return false; }
  bool has_global() const override { return true; }
  api::GlobalSystem make_global(
      const api::ScenarioOptions& options) const override {
    api::GlobalSystem sys;
    sys.model = std::make_shared<NetMaskModel>(options.seed + 7);
    sys.keepalive = sys.model;
    sys.interpret_defaults.steps = 30;
    sys.interpret_defaults.seed = options.seed + 2;
    return sys;
  }

 private:
  std::string key_;
};

void expect_same_interpret(const core::InterpretResult& a,
                           const core::InterpretResult& b,
                           const std::string& what) {
  ASSERT_EQ(a.mask.rows(), b.mask.rows()) << what;
  ASSERT_EQ(a.mask.cols(), b.mask.cols()) << what;
  EXPECT_EQ(std::memcmp(a.mask.data().data(), b.mask.data().data(),
                        a.mask.size() * sizeof(double)),
            0)
      << what << ": masks differ";
  EXPECT_EQ(std::memcmp(&a.divergence, &b.divergence, sizeof(double)), 0)
      << what;
  EXPECT_EQ(std::memcmp(&a.mask_l1, &b.mask_l1, sizeof(double)), 0) << what;
  EXPECT_EQ(std::memcmp(&a.entropy, &b.entropy, sizeof(double)), 0) << what;
  ASSERT_EQ(a.ranked.size(), b.ranked.size()) << what;
  for (std::size_t i = 0; i < a.ranked.size(); ++i) {
    EXPECT_EQ(a.ranked[i].edge, b.ranked[i].edge) << what << " rank " << i;
    EXPECT_EQ(a.ranked[i].vertex, b.ranked[i].vertex) << what << " rank " << i;
    EXPECT_EQ(a.ranked[i].mask, b.ranked[i].mask) << what << " rank " << i;
  }
}

// N concurrent same-key interpret jobs (per-job model clones, no lock)
// must reproduce the sequential single-job result bit for bit — for
// built-in scenarios (routing's clones share one read-only CSR
// candidate incidence) and for the net-backed model whose weight
// gradients used to force serialization.
TEST(Service, ConcurrentSameKeyInterpretBitwiseIdenticalToSequential) {
  api::ScenarioRegistry reg;
  api::register_builtin_scenarios(reg);
  reg.add(std::make_unique<NetMaskScenario>("netmask"));

  api::InterpretOverrides io;
  io.steps = 40;
  api::ScenarioOptions options;
  options.scale = 0.05;

  for (const char* key : {"cellular", "routing", "netmask"}) {
    core::InterpretResult reference;
    {
      serve::ServiceConfig cfg;
      cfg.workers = 1;
      cfg.registry = &reg;
      cfg.options = options;
      serve::Service svc(cfg);
      reference = svc.submit_interpret(key, io).take_interpret_run().result;
    }

    serve::ServiceConfig cfg;
    cfg.workers = 4;
    cfg.registry = &reg;
    cfg.options = options;
    serve::Service svc(cfg);
    std::vector<serve::JobHandle> jobs;
    for (int i = 0; i < 4; ++i) jobs.push_back(svc.submit_interpret(key, io));
    svc.wait_all();
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      ASSERT_EQ(jobs[i].status(), serve::JobStatus::kDone) << jobs[i].error();
      expect_same_interpret(
          jobs[i].interpret_run().result, reference,
          std::string(key) + " concurrent job " + std::to_string(i));
    }
  }
}

// deadline_ms arrives off the wire unchecked. A delay past what
// steady_clock can represent from submission means no deadline: these
// jobs must run to kDone, not overflow the deadline sum into a token that
// has already fired.
TEST(Service, FarFutureDeadlinesMeanNoDeadline) {
  api::ScenarioRegistry reg;
  reg.add(std::make_unique<LineScenario>("line"));
  reg.add(std::make_unique<NetMaskScenario>("netmask"));
  serve::ServiceConfig cfg;
  cfg.workers = 1;
  cfg.registry = &reg;
  serve::Service svc(cfg);

  for (const std::uint64_t ms :
       {std::numeric_limits<std::uint64_t>::max(),
        static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max()),
        std::uint64_t{10'000'000'000'000}}) {
    api::DistillOverrides d;
    d.deadline_ms = ms;
    api::InterpretOverrides i;
    i.deadline_ms = ms;
    auto distill = svc.submit_distill("line", d);
    auto interpret = svc.submit_interpret("netmask", i);
    distill.wait();
    interpret.wait();
    EXPECT_EQ(distill.status(), serve::JobStatus::kDone)
        << "deadline_ms=" << ms << ": " << distill.error();
    EXPECT_EQ(interpret.status(), serve::JobStatus::kDone)
        << "deadline_ms=" << ms << ": " << interpret.error();
  }
}

// Job limits: an override at its cap is admitted (it queues behind a gated
// job and is cancelled before it runs); 0 and cap + 1 are refused by
// submit_* itself — std::invalid_argument naming the field, no job in the
// table.
TEST(Service, JobLimitsAdmitTheCapAndRefuseCapPlusOne) {
  std::promise<void> release;
  api::ScenarioRegistry reg;
  reg.add(std::make_unique<GatedScenario>("gated",
                                          release.get_future().share()));
  serve::ServiceConfig cfg;
  cfg.workers = 1;
  cfg.registry = &reg;
  serve::Service svc(cfg);
  auto blocker = svc.submit_distill("gated");  // holds the one worker
  while (blocker.status() == serve::JobStatus::kQueued) {
    std::this_thread::yield();
  }

  const auto admitted = [](const serve::JobHandle& job,
                           const std::string& name) {
    EXPECT_EQ(job.status(), serve::JobStatus::kQueued) << name;
    EXPECT_TRUE(job.cancel()) << name;
  };
  const auto refused = [&svc](const std::function<void()>& submit,
                              const std::string& name, std::size_t value) {
    const std::size_t table = svc.jobs().size();
    try {
      submit();
      ADD_FAILURE() << name << " = " << value << " was admitted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(name), std::string::npos)
          << e.what();
    }
    EXPECT_EQ(svc.jobs().size(), table) << name << " = " << value;
  };

  using Field = std::optional<std::size_t> api::DistillOverrides::*;
  const std::vector<std::tuple<Field, std::size_t, std::string>> fields = {
      {&api::DistillOverrides::episodes, serve::kMaxEpisodes, "episodes"},
      {&api::DistillOverrides::max_steps, serve::kMaxSteps, "max_steps"},
      {&api::DistillOverrides::dagger_iterations,
       serve::kMaxDaggerIterations, "dagger_iterations"},
      {&api::DistillOverrides::max_leaves, serve::kMaxLeaves, "max_leaves"},
  };
  for (const auto& [field, cap, name] : fields) {
    api::DistillOverrides o;
    o.*field = cap;
    admitted(svc.submit_distill("gated", o), name);
    for (const std::size_t bad : {std::size_t{0}, cap + 1}) {
      o.*field = bad;
      refused([&] { (void)svc.submit_distill("gated", o); }, name, bad);
    }
  }
  api::InterpretOverrides io;
  io.steps = serve::kMaxInterpretSteps;
  admitted(svc.submit_interpret("gated", io), "steps");
  for (const std::size_t bad : {std::size_t{0}, serve::kMaxInterpretSteps + 1}) {
    io.steps = bad;
    refused([&] { (void)svc.submit_interpret("gated", io); }, "steps", bad);
  }

  EXPECT_TRUE(blocker.cancel());
  release.set_value();
  svc.wait_all();
  for (const auto& job : svc.jobs()) {
    EXPECT_EQ(job.status(), serve::JobStatus::kCancelled);
  }
  EXPECT_EQ(svc.jobs().size(), 6u);  // the blocker and five admitted
}

// λ1, λ2 and lr come off the wire through InterpretOverrides; a
// non-finite one must fail the job with the search's check message
// instead of finishing kDone with NaN masks.
TEST(Service, NonFiniteInterpretOverridesFailTheJob) {
  api::ScenarioRegistry reg;
  reg.add(std::make_unique<NetMaskScenario>("netmask"));
  serve::ServiceConfig cfg;
  cfg.workers = 1;
  cfg.registry = &reg;
  serve::Service svc(cfg);

  const double inf = std::numeric_limits<double>::infinity();
  std::vector<std::pair<api::InterpretOverrides, std::string>> cases(3);
  cases[0].first.lambda1 = inf;
  cases[0].second = "lambda1 and lambda2 must be finite";
  cases[1].first.lambda2 = inf;
  cases[1].second = "lambda1 and lambda2 must be finite";
  cases[2].first.lr = inf;
  cases[2].second = "lr must be finite";
  for (const auto& [io, message] : cases) {
    auto job = svc.submit_interpret("netmask", io);
    job.wait();
    EXPECT_EQ(job.status(), serve::JobStatus::kFailed) << message;
    EXPECT_NE(job.error().find(message), std::string::npos) << job.error();
    EXPECT_EQ(job.progress().steps_done, 0u) << message;
  }
}

TEST(Service, InterpretJobsReportStepProgress) {
  api::ScenarioRegistry reg;
  reg.add(std::make_unique<NetMaskScenario>("netmask"));

  serve::ServiceConfig cfg;
  cfg.workers = 1;
  cfg.registry = &reg;
  serve::Service svc(cfg);

  api::InterpretOverrides io;
  io.steps = 17;
  auto job = svc.submit_interpret("netmask", io);
  const serve::JobProgress before = job.progress();  // may already run
  EXPECT_LE(before.steps_done, before.steps_total == 0 ? io.steps.value()
                                                       : before.steps_total);

  job.wait();
  ASSERT_EQ(job.status(), serve::JobStatus::kDone) << job.error();
  const serve::JobProgress done = job.progress();
  EXPECT_EQ(done.steps_total, 17u);
  EXPECT_EQ(done.steps_done, 17u);
  EXPECT_EQ(done.rounds_total, 0u);  // interpret jobs have no rounds
  // The returned config must not tick this job's counters when re-run.
  EXPECT_EQ(job.interpret_run().config.on_step, nullptr);
}

// ---- build cache ------------------------------------------------------------

TEST(Service, BuildCacheKeepsEveryKeyBuilt) {
  std::atomic<int> builds_a{0};
  std::atomic<int> builds_b{0};
  api::ScenarioRegistry reg;
  reg.add(std::make_unique<LineScenario>("line-a", &builds_a));
  reg.add(std::make_unique<LineScenario>("line-b", &builds_b));

  serve::ServiceConfig cfg;
  cfg.workers = 1;
  cfg.registry = &reg;
  serve::Service svc(cfg);

  for (int round = 0; round < 3; ++round) {
    svc.submit_distill("line-a").wait();
    svc.submit_distill("line-b").wait();
  }
  EXPECT_EQ(builds_a.load(), 1);
  EXPECT_EQ(builds_b.load(), 1);
}

// ---- registry thread-safety -------------------------------------------------

TEST(Registry, ConcurrentLookupsAndRegistrationsAreSafe) {
  api::ScenarioRegistry reg;
  api::register_builtin_scenarios(reg);

  std::atomic<bool> stop{false};
  std::atomic<int> lookups{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        ASSERT_NE(reg.find("abr"), nullptr);
        ASSERT_EQ(reg.get("pensieve").key(), "abr");
        ASSERT_GE(reg.keys().size(), 6u);
        ASSERT_GE(reg.size(), 6u);
        ++lookups;
      }
    });
  }
  for (int i = 0; i < 40; ++i) {
    reg.add(std::make_unique<LineScenario>("line-" + std::to_string(i)));
  }
  while (lookups.load() < 500) std::this_thread::yield();
  stop.store(true);
  for (auto& t : readers) t.join();

  EXPECT_EQ(reg.size(), 46u);
  for (int i = 0; i < 40; ++i) {
    EXPECT_TRUE(reg.contains("line-" + std::to_string(i)));
  }
}

// ---- the shared teacher -----------------------------------------------------

// Concurrent same-key distills share the cached teacher read-only: every
// run holds the same teacher and matches a sequential run bit for bit.
TEST(Service, ConcurrentSameKeyAbrDistillsShareOneTeacherBitwise) {
  api::ScenarioOptions options;
  options.scale = 0.05;  // smoke-scale teacher
  api::DistillOverrides o;
  o.episodes = 4;
  o.max_steps = 20;
  o.dagger_iterations = 1;
  o.max_leaves = 8;

  api::ScenarioRegistry reg;
  api::register_builtin_scenarios(reg);

  api::DistillRun reference;
  {
    serve::ServiceConfig cfg;
    cfg.workers = 1;
    cfg.registry = &reg;
    cfg.options = options;
    serve::Service svc(cfg);
    reference = svc.submit_distill("abr", o).take_distill_run();
  }

  serve::ServiceConfig cfg;
  cfg.workers = 3;
  cfg.registry = &reg;
  cfg.options = options;
  serve::Service svc(cfg);
  std::vector<serve::JobHandle> jobs;
  for (int i = 0; i < 3; ++i) jobs.push_back(svc.submit_distill("abr", o));
  svc.wait_all();
  const std::string want = tree::serialize(reference.result.tree);
  const core::Teacher* shared = nullptr;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    ASSERT_EQ(jobs[i].status(), serve::JobStatus::kDone) << jobs[i].error();
    const api::DistillRun& run = jobs[i].distill_run();
    if (shared == nullptr) shared = run.system.teacher.get();
    EXPECT_EQ(run.system.teacher.get(), shared) << "job " << i;
    EXPECT_EQ(tree::serialize(run.result.tree), want) << "job " << i;
    EXPECT_EQ(std::memcmp(&run.result.fidelity, &reference.result.fidelity,
                          sizeof(double)),
              0)
        << "job " << i;
  }
}

}  // namespace
}  // namespace metis
