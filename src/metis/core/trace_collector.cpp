#include "metis/core/trace_collector.h"

#include <algorithm>
#include <memory>
#include <span>
#include <utility>

#include "metis/nn/arena.h"
#include "metis/nn/autodiff.h"
#include "metis/util/check.h"

namespace metis::core {
namespace {

// metis-lint: begin-deterministic — the §3.2/Eq. 1 collection pipeline:
// datasets must be bitwise identical to the per-episode reference loop,
// with or without buffer recycling, so no nondeterminism source may enter
// here. All randomness flows through the envs' Rng::derive(seed, episode)
// streams; episode k's trajectory is a pure function of (seed, k).

// Live state of one episode advancing in lockstep with the round.
struct LiveEpisode {
  std::size_t slot = 0;  // index into the round's per_episode output
  RolloutEnv* env = nullptr;
  std::vector<double> state;
  std::size_t deviations = 0;
  std::size_t teacher_control_left = 0;
};

// §3.2 step 1 for the round's episodes, envs[i] driving episode i. All of
// them advance through step t together, and each step asks the teacher
// one question: one act_and_values_multi call with a group per live
// episode, [s, s'_1..s'_A] when Eq. 1 is on and its env can look ahead,
// [s] otherwise. Episodes that terminate drop out of the batch;
// per-episode rows are independent, so each episode's samples do not
// depend on which others share its steps.
//
// The caller holds an nn::arena::Scope across the round: every step
// allocates the same tensor shapes, so after the first step the arena
// serves each one from its free list (tests/alloc_test.cpp pins this to
// zero fresh allocations).
void collect_block(const Teacher& teacher, std::span<RolloutEnv* const> envs,
                   const CollectConfig& cfg, const StudentPolicy* student,
                   std::size_t episode_offset,
                   std::vector<std::vector<CollectedSample>>& out) {
  // Collection never backpropagates: tape-free forwards skip parent
  // wiring and gradient tensors.
  nn::NoGradGuard no_grad;
  std::vector<LiveEpisode> active;
  active.reserve(envs.size());
  for (std::size_t i = 0; i < envs.size(); ++i) {
    LiveEpisode ep;
    ep.slot = i;
    ep.env = envs[i];
    ep.state = ep.env->reset(episode_offset + i);
    active.push_back(std::move(ep));
  }

  // Per-step scratch, reused so steps do not churn the allocator.
  std::vector<std::vector<double>> rows;
  std::vector<std::size_t> groups;
  std::vector<std::vector<Lookahead>> lookaheads;
  std::vector<LiveEpisode> still;
  for (std::size_t t = 0; t < cfg.max_steps && !active.empty(); ++t) {
    // Every episode of the round is mid-flight at once, so the natural
    // cancellation boundary is the step.
    cfg.cancel.check();
    // Phase 1: assemble the step's one teacher query across the round.
    rows.clear();
    groups.clear();
    lookaheads.resize(active.size());
    for (std::size_t e = 0; e < active.size(); ++e) {
      std::vector<Lookahead>& la = lookaheads[e];
      if (cfg.weight_by_advantage) {
        la = active[e].env->lookahead();
      } else {
        la.clear();
      }
      MET_CHECK(la.empty() || la.size() == teacher.action_count());
      groups.push_back(la.size() + 1);
      rows.push_back(active[e].state);
      for (auto& l : la) rows.push_back(std::move(l.next_state));
    }
    const std::vector<Teacher::ActValues> answers =
        teacher.act_and_values_multi(rows, groups);
    MET_CHECK(answers.size() == active.size());

    // Phase 2: per-episode labeling, control handoff, and stepping, in
    // episode order.
    still.clear();
    for (std::size_t e = 0; e < active.size(); ++e) {
      LiveEpisode& ep = active[e];
      CollectedSample sample;
      sample.features = ep.env->interpretable_features();

      const Teacher::ActValues& av = answers[e];
      const std::vector<Lookahead>& la = lookaheads[e];
      MET_CHECK(av.values.size() == la.size() + 1);
      const std::size_t teacher_action = av.action;
      if (!la.empty()) {
        // Eq. 1:  p(s,a) ∝ V(s) − min_a' Q(s,a').  Clamp at a small
        // positive floor so no visited state is entirely discarded. A
        // 1-row group (no lookahead, or Eq. 1 off) keeps uniform weight.
        double min_q = la[0].reward + cfg.gamma * av.values[1];
        for (std::size_t a = 1; a < la.size(); ++a) {
          min_q = std::min(min_q, la[a].reward + cfg.gamma * av.values[a + 1]);
        }
        sample.weight = std::max(av.values[0] - min_q, 1e-3);
      }
      sample.action = teacher_action;
      std::vector<CollectedSample>& samples = out[ep.slot];
      samples.push_back(std::move(sample));

      // Who drives this step?
      std::size_t executed = teacher_action;
      if (student != nullptr && ep.teacher_control_left == 0) {
        executed = (*student)(samples.back().features);
        MET_CHECK(executed < ep.env->action_count());
        if (executed != teacher_action) {
          if (++ep.deviations >= cfg.deviation_limit) {
            // §3.2: the DNN takes over on the deviated trajectory.
            ep.teacher_control_left = cfg.takeover_steps;
            ep.deviations = 0;
          }
        } else {
          ep.deviations = 0;
        }
      } else if (ep.teacher_control_left > 0) {
        --ep.teacher_control_left;
      }

      nn::StepResult sr = ep.env->step(executed);
      if (sr.done) {
        if (cfg.on_episode_done) cfg.on_episode_done();
      } else {
        ep.state = std::move(sr.next_state);
        still.push_back(std::move(ep));
      }
    }
    active.swap(still);
  }
  // Episodes that exhausted max_steps without terminating complete here.
  if (cfg.on_episode_done) {
    for (std::size_t e = 0; e < active.size(); ++e) cfg.on_episode_done();
  }
}

std::vector<CollectedSample> merge_in_episode_order(
    std::vector<std::vector<CollectedSample>>&& per_episode) {
  std::size_t total = 0;
  for (const auto& ep : per_episode) total += ep.size();
  std::vector<CollectedSample> samples;
  samples.reserve(total);
  for (auto& ep : per_episode) {
    for (auto& s : ep) samples.push_back(std::move(s));
  }
  return samples;
}

}  // namespace

std::vector<CollectedSample> collect_traces(const Teacher& teacher,
                                            RolloutEnv& env,
                                            const CollectConfig& cfg,
                                            const StudentPolicy* student,
                                            std::size_t episode_offset) {
  MET_CHECK(cfg.episodes > 0 && cfg.max_steps > 0);
  MET_CHECK(teacher.action_count() == env.action_count());
  std::vector<std::vector<CollectedSample>> per_episode(cfg.episodes);

  // Every episode of the round is live at once, so each runs on its own
  // clone of the caller's env.
  std::vector<std::shared_ptr<RolloutEnv>> clones;
  std::vector<RolloutEnv*> envs;
  clones.reserve(cfg.episodes);
  envs.reserve(cfg.episodes);
  for (std::size_t ep = 0; ep < cfg.episodes; ++ep) {
    clones.push_back(env.clone());
    MET_CHECK(clones.back() != nullptr);
    envs.push_back(clones.back().get());
  }
  nn::arena::Scope arena;
  collect_block(teacher, envs, cfg, student, episode_offset, per_episode);
  return merge_in_episode_order(std::move(per_episode));
}

// metis-lint: end-deterministic

}  // namespace metis::core
