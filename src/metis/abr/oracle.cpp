#include "metis/abr/oracle.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "metis/abr/baselines.h"
#include "metis/abr/qoe.h"
#include "metis/util/check.h"
#include "metis/util/stats.h"

namespace metis::abr {

namespace {

// Best achievable QoE over `depth` more chunks starting from `session`
// (exhaustive enumeration; 6^depth leaves). The session is taken by value:
// AbrSession is a small value type, and each branch mutates its own copy.
double best_tail(const AbrSession& session, std::size_t depth,
                 const OraclePlanConfig& cfg) {
  if (depth == 0 || session.done()) {
    return cfg.terminal_buffer_bonus * session.observe().buffer_seconds;
  }
  double best = -std::numeric_limits<double>::infinity();
  for (std::size_t a = 0; a < kLevels; ++a) {
    AbrSession branch = session;
    const ChunkRecord rec = branch.step(a);
    best = std::max(best, rec.qoe + best_tail(branch, depth - 1, cfg));
  }
  return best;
}

// CausalMpcExpert's plan search: every sequence of `steps` ladder levels
// scored by simulating its chunks over the predicted bandwidth `pred`.
// Plans are visited depth first, so the buffer, previous quality and
// running score of each prefix are computed once and shared by all its
// extensions (6 + 36 + ... + 6^steps chunk simulations instead of
// steps * 6^steps), each with the same operations in the same order as a
// plan scored on its own; the per-level quantities every chunk after the
// first reuses (quality term, nominal download time) are computed once per
// decision, from the same operands. A plan's code is sum_i level_i * 6^i;
// the winner is the highest score, ties going to the lowest code — the
// plan a scan over ascending codes with a strict `>` keeps.
struct PlanSearch {
  std::size_t steps;
  double terminal_bonus;
  double terminal_cap_s;
  // Per level: quality(rate); the first chunk's previous quality (the
  // last played bitrate's, else its own); and the download seconds of the
  // first chunk (its true VBR size when observed) and of any later one
  // (nominal size).
  std::array<double, kLevels> level_quality{};
  std::array<double, kLevels> first_prev_quality{};
  std::array<double, kLevels> first_dl{};
  std::array<double, kLevels> nominal_dl{};
  double best_score = -std::numeric_limits<double>::infinity();
  std::size_t best_code = 0;

  // Extends the `depth`-chunk prefix `code` (`place` = 6^depth), whose
  // last chunk has quality `prev_q`, by each ladder level.
  void extend(std::size_t depth, std::size_t code, std::size_t place,
              double buffer, double prev_q, double score) {
    for (std::size_t level = 0; level < kLevels; ++level) {
      const bool first = depth == 0;
      const double q = level_quality[level];
      const double dl = first ? first_dl[level] : nominal_dl[level];
      const double rebuffer = std::max(dl - buffer, 0.0);
      const double next_buffer = std::max(buffer - dl, 0.0) + kChunkSeconds;
      const double next_score =
          score + chunk_qoe_from_quality(
                      q, first ? first_prev_quality[level] : prev_q, rebuffer);
      const std::size_t next_code = code + level * place;
      if (depth + 1 < steps) {
        extend(depth + 1, next_code, place * kLevels, next_buffer, q,
               next_score);
        continue;
      }
      const double total =
          next_score + terminal_bonus * std::min(next_buffer, terminal_cap_s);
      if (total > best_score ||
          (total == best_score && next_code < best_code)) {
        best_score = total;
        best_code = next_code;
      }
    }
  }
};

}  // namespace

std::size_t oracle_action(const AbrSession& session,
                          const OraclePlanConfig& cfg) {
  MET_CHECK(cfg.horizon >= 1);
  MET_CHECK(!session.done());
  double best = -std::numeric_limits<double>::infinity();
  std::size_t best_a = 0;
  for (std::size_t a = 0; a < kLevels; ++a) {
    AbrSession branch = session;
    const ChunkRecord rec = branch.step(a);
    const double score = rec.qoe + best_tail(branch, cfg.horizon - 1, cfg);
    if (score > best) {
      best = score;
      best_a = a;
    }
  }
  return best_a;
}

EpisodeResult run_oracle_episode(const Video& video,
                                 const NetworkTrace& trace,
                                 const OraclePlanConfig& cfg,
                                 double start_offset_seconds,
                                 std::vector<DemoStep>* demos, double gamma) {
  MET_CHECK(cfg.horizon >= 1);
  AbrSession session(&video, &trace, start_offset_seconds);
  EpisodeResult result;
  result.chunks.reserve(video.chunk_count());
  const std::size_t first_demo = demos != nullptr ? demos->size() : 0;
  while (!session.done()) {
    const AbrObservation obs = session.observe();
    const std::size_t a = oracle_action(session, cfg);
    if (demos != nullptr) {
      DemoStep d;
      d.state = featurize(obs, video);
      d.action = a;
      demos->push_back(std::move(d));
    }
    result.chunks.push_back(session.step(a));
  }
  if (demos != nullptr) {
    // Backfill gamma-discounted Monte-Carlo returns for the value head.
    double g = 0.0;
    const std::size_t n = result.chunks.size();
    for (std::size_t i = n; i-- > 0;) {
      g = result.chunks[i].qoe + gamma * g;
      (*demos)[first_demo + i].mc_return = g;
    }
  }
  return result;
}

CausalMpcExpert::CausalMpcExpert(CausalMpcConfig cfg, std::string label)
    : cfg_(std::move(cfg)), label_(std::move(label)) {
  MET_CHECK(cfg_.horizon >= 1 && cfg_.horizon <= 6);
  MET_CHECK(cfg_.window >= 1);
  MET_CHECK(cfg_.error_percentile >= 0.0 && cfg_.error_percentile <= 100.0);
}

std::size_t CausalMpcExpert::decide(const AbrObservation& obs) {
  const auto& ladder = bitrate_ladder_kbps();
  const double hm = harmonic_mean_recent(obs.throughput_kbps, cfg_.window);
  if (hm <= 0.0) return 0;  // nothing observed yet: start safe

  // Percentile-of-recent-relative-error discount: softer than rMPC's max
  // error, so one outlier slot does not force the lowest bitrate.
  std::vector<double> errs;
  const std::size_t n = obs.throughput_kbps.size();
  const std::size_t w = std::min(cfg_.window, n);
  for (std::size_t i = n - w; i < n; ++i) {
    errs.push_back(std::abs(obs.throughput_kbps[i] - hm) /
                   std::max(obs.throughput_kbps[i], 1e-9));
  }
  const double pred =
      hm / (1.0 + metis::percentile(errs, cfg_.error_percentile));

  const std::size_t steps =
      std::min<std::size_t>(cfg_.horizon,
                            std::max<std::size_t>(obs.chunks_remaining, 1));
  PlanSearch search{steps, cfg_.terminal_buffer_bonus,
                    cfg_.terminal_buffer_cap_s};
  MET_CHECK(ladder.size() == kLevels);
  for (std::size_t level = 0; level < kLevels; ++level) {
    const double rate = ladder[level];
    search.level_quality[level] = quality(rate);
    search.first_prev_quality[level] =
        obs.last_bitrate_kbps > 0.0 ? quality(obs.last_bitrate_kbps)
                                    : search.level_quality[level];
    search.nominal_dl[level] = rate * kChunkSeconds / pred;
    // The immediate chunk's true VBR size is observable; later chunks
    // use the nominal rate * duration size.
    search.first_dl[level] =
        level < obs.next_chunk_sizes_kbits.size() &&
                obs.next_chunk_sizes_kbits[level] > 0.0
            ? obs.next_chunk_sizes_kbits[level] / pred
            : search.nominal_dl[level];
  }
  search.extend(0, 0, 1, obs.buffer_seconds, 0.0, 0.0);
  return search.best_code % kLevels;
}

std::vector<DemoStep> collect_oracle_demos(
    const Video& video, const std::vector<NetworkTrace>& corpus,
    const OraclePlanConfig& cfg, double gamma,
    std::size_t offsets_per_trace) {
  MET_CHECK(!corpus.empty());
  MET_CHECK(offsets_per_trace >= 1);
  std::vector<DemoStep> demos;
  for (const auto& trace : corpus) {
    for (std::size_t k = 0; k < offsets_per_trace; ++k) {
      // Spread the episodes over the first half of the trace so every
      // start leaves a full video's worth of bandwidth ahead.
      const double offset = trace.duration_seconds() * 0.5 *
                            static_cast<double>(k) /
                            static_cast<double>(offsets_per_trace);
      run_oracle_episode(video, trace, cfg, offset, &demos, gamma);
    }
  }
  return demos;
}

}  // namespace metis::abr
