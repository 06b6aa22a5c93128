// §3.2 step 1 — trace collection.
//
// Follows the teacher DNN's trajectories to obtain (state, action) pairs
// with the correct state distribution, then runs DAgger-style iterations:
// the student tree acts, the teacher labels every visited state, and the
// teacher *takes over control* when the student's trajectory deviates
// (so the dataset keeps covering states the DNN policy would reach).
#pragma once

#include <functional>
#include <vector>

#include "metis/core/teacher.h"
#include "metis/util/cancel.h"
#include "metis/util/rng.h"

namespace metis::core {

// How one collection round is executed. There is a single engine: the
// episodes of a round advance step-for-step together, and each step asks
// the teacher one question, a Teacher::act_and_values_multi call with one
// group per live episode: [s, s'_1..s'_A] when Eq. 1 is on and the
// episode's env can look ahead, the 1-row group [s] otherwise. A DNN
// teacher thus runs ~steps trunk forwards per round instead of episodes x
// steps. The trunk and value head run on every row of a group and the
// policy head on its first row only. For ABR the A successor states come
// from AbrEnv::peek_step, which steps a copy of the session (its histories
// are inline arrays) and featurizes it directly. The round runs on the
// calling thread, each episode on its own clone of the caller's env.
//
// The lockstep cannot affect the result: every episode derives its
// randomness from its index (the RolloutEnv episode-determinism
// contract), per-row teacher outputs are independent of the batch they
// sit in, and the output is merged in episode order. The dataset is
// therefore bitwise identical to the scalar per-episode reference loop
// (tests/collect_oracle.h is that reference).
struct CollectConfig {
  std::size_t episodes = 32;      // per collection round
  std::size_t max_steps = 1000;   // per-episode cap
  double gamma = 0.99;            // Q bootstrap discount for Eq. 1
  // Eq. 1 weighting. Episodes whose env exposes lookahead() get act(s),
  // V(s) and every V(s') from one fused trunk forward; the others keep
  // uniform weight.
  bool weight_by_advantage = true;
  // Teacher takes control after this many consecutive student deviations…
  std::size_t deviation_limit = 3;
  // …and keeps it for this many steps before handing back.
  std::size_t takeover_steps = 8;
  // Invoked once per completed episode (serve-path progress reporting),
  // on the calling thread.
  std::function<void()> on_episode_done;
  // Cooperative cancellation, polled before every lockstep step of the
  // round. Checkpoints never alter the computation — a round that runs to
  // completion is bitwise identical with or without a token attached; a
  // fired token aborts the round via CancelledError.
  util::CancelToken cancel;
};

struct CollectedSample {
  std::vector<double> features;  // interpretable feature view
  std::size_t action = 0;        // teacher label
  double weight = 1.0;           // Eq. 1 loss  V(s) − min_a Q(s,a)  (≥ 0)
};

// Student policy over interpretable features (DAgger iterations >= 1).
using StudentPolicy = std::function<std::size_t(std::span<const double>)>;

// Runs `cfg.episodes` episodes. With student == nullptr the teacher drives
// (round 0); otherwise the student drives with teacher takeover on
// deviation. Episode indices start at `episode_offset` so successive
// rounds see fresh traces.
[[nodiscard]] std::vector<CollectedSample> collect_traces(
    const Teacher& teacher, RolloutEnv& env, const CollectConfig& cfg,
    const StudentPolicy* student, std::size_t episode_offset);

}  // namespace metis::core
