// Parity oracle for core::collect_traces: the §3.2 collection loop written
// as plainly as possible. One episode at a time on the caller's env, one
// scalar teacher query per call (act, and Eq. 1's Q(s,a) = r + γ·V(s′)
// over RolloutEnv::lookahead()), no batching, no threads, and every
// kernel family at isa::Level::kReference underneath. collect_traces must reproduce its dataset bit for
// bit however the round is cut into blocks.
#pragma once

#include <algorithm>
#include <utility>
#include <vector>

#include "metis/core/trace_collector.h"
#include "metis/util/isa.h"

namespace metis::oracle {

inline std::vector<core::CollectedSample> collect_traces(
    const core::Teacher& teacher, core::RolloutEnv& env,
    const core::CollectConfig& cfg, const core::StudentPolicy* student,
    std::size_t episode_offset) {
  isa::ScopedLevel reference(isa::Level::kReference);
  std::vector<core::CollectedSample> samples;
  for (std::size_t ep = 0; ep < cfg.episodes; ++ep) {
    std::vector<double> state = env.reset(episode_offset + ep);
    std::size_t deviations = 0;
    std::size_t teacher_control_left = 0;
    for (std::size_t t = 0; t < cfg.max_steps; ++t) {
      core::CollectedSample sample;
      sample.features = env.interpretable_features();
      sample.action = teacher.act(state);
      if (cfg.weight_by_advantage) {
        // Eq. 1:  V(s) − min_a Q(s,a), floored at 1e-3; uniform weight
        // when the env cannot look ahead.
        const std::vector<core::Lookahead> la = env.lookahead();
        if (!la.empty()) {
          const auto q = [&](const core::Lookahead& l) {
            return l.reward + cfg.gamma * teacher.value(l.next_state);
          };
          double min_q = q(la[0]);
          for (std::size_t a = 1; a < la.size(); ++a) {
            min_q = std::min(min_q, q(la[a]));
          }
          sample.weight = std::max(teacher.value(state) - min_q, 1e-3);
        }
      }

      // The student drives; the teacher takes over for takeover_steps
      // after deviation_limit consecutive deviations.
      std::size_t executed = sample.action;
      if (student != nullptr && teacher_control_left == 0) {
        executed = (*student)(sample.features);
        if (executed == sample.action) {
          deviations = 0;
        } else if (++deviations >= cfg.deviation_limit) {
          teacher_control_left = cfg.takeover_steps;
          deviations = 0;
        }
      } else if (teacher_control_left > 0) {
        --teacher_control_left;
      }
      samples.push_back(std::move(sample));

      nn::StepResult sr = env.step(executed);
      if (sr.done) break;
      state = std::move(sr.next_state);
    }
  }
  return samples;
}

}  // namespace metis::oracle
