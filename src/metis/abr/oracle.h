// Omniscient MPC planner: model-predictive bitrate control with *true*
// future bandwidth knowledge (it replans over the actual trace ahead).
//
// Two roles in the reproduction:
//  * an offline near-optimal reference (the "offline optimal" Pensieve's
//    evaluation measures its gap against), and
//  * the demonstration source for behavior-cloning the Pensieve teacher
//    before A2C finetuning (see PensieveAgent::pretrain). The paper
//    interprets a *finetuned* TensorFlow model; cloning an oracle and then
//    finetuning with RL reproduces a teacher of comparable strength
//    without hours of A3C (DESIGN.md substitution table).
#pragma once

#include <cstddef>
#include <vector>

#include "metis/abr/env.h"
#include "metis/abr/trace_gen.h"
#include "metis/abr/video.h"

namespace metis::abr {

struct OraclePlanConfig {
  std::size_t horizon = 4;  // lookahead depth in chunks (6^horizon plans)
  // Value of one buffered second at the planning horizon; keeps the
  // planner from draining the buffer right before its horizon ends.
  double terminal_buffer_bonus = 0.05;
};

// The oracle's chosen level for the session's next chunk (exhaustive
// lookahead over the true future bandwidth). Usable mid-episode, e.g. for
// DAgger-style corrections at states visited by a student policy.
[[nodiscard]] std::size_t oracle_action(const AbrSession& session,
                                        const OraclePlanConfig& cfg);

// Causal MPC expert: the strongest policy in the repo that only sees what
// a deployed client sees. Like rMPC it plans exhaustively over a constant
// predicted bandwidth, but with three refinements that close most of the
// gap to the omniscient oracle: a percentile (not max) error discount, the
// true VBR size of the immediate next chunk, and a terminal buffer bonus
// that stops the plan from draining the buffer at its horizon. Being
// causal, it can be behavior-cloned without the optimism bias an
// omniscient teacher imprints on its student.
//
// decide() searches the 6^horizon plans depth first over shared plan
// prefixes (each prefix's chunks simulated once) and returns the first
// level of the best plan, ties going to the lowest plan code
// sum_i level_i * 6^i: the same choice, bit for bit, as scoring every plan
// from scratch in ascending code order (tests/abr_test.cpp keeps that scan
// as the reference).
struct CausalMpcConfig {
  std::size_t horizon = 5;
  std::size_t window = 5;            // throughput history for prediction
  double error_percentile = 100.0;   // prediction-error discount (100 = max)
  double terminal_buffer_bonus = 0.1;
  double terminal_buffer_cap_s = 25.0;
};

class CausalMpcExpert final : public AbrPolicy {
 public:
  explicit CausalMpcExpert(CausalMpcConfig cfg = {},
                           std::string label = "CausalMPC");
  [[nodiscard]] std::size_t decide(const AbrObservation& obs) override;
  [[nodiscard]] std::string name() const override { return label_; }

 private:
  CausalMpcConfig cfg_;
  std::string label_;
};

// One (state, action) demonstration step plus its Monte-Carlo return (used
// to fit the cloned network's value head).
struct DemoStep {
  std::vector<double> state;  // featurize()d observation
  std::size_t action = 0;
  double mc_return = 0.0;
};

// Plans one full episode with the omniscient MPC policy. If `demos` is
// non-null, appends one DemoStep per chunk (returns filled with
// gamma-discounted QoE).
EpisodeResult run_oracle_episode(const Video& video,
                                 const NetworkTrace& trace,
                                 const OraclePlanConfig& cfg,
                                 double start_offset_seconds = 0.0,
                                 std::vector<DemoStep>* demos = nullptr,
                                 double gamma = 0.97);

// Runs the oracle over every trace of a corpus and returns the pooled
// demonstrations. `offsets_per_trace` episodes are planned per trace, each
// starting at a different point of the (long) trace, multiplying the
// demonstration volume without new traces.
[[nodiscard]] std::vector<DemoStep> collect_oracle_demos(
    const Video& video, const std::vector<NetworkTrace>& corpus,
    const OraclePlanConfig& cfg, double gamma = 0.97,
    std::size_t offsets_per_trace = 1);

}  // namespace metis::abr
