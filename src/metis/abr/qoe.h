// Pensieve's linear QoE metric (§5): per-chunk
//   QoE_t = q(R_t) − μ · rebuffer_t − |q(R_t) − q(R_{t−1})|
// with q(R) = bitrate in Mbps and μ = 4.3 (the rebuffer penalty equal to
// the top bitrate, as in the Pensieve paper).
//
// Inline: CausalMpcExpert's planner scores ~9k simulated chunks per
// decision with these.
#pragma once

#include <cmath>

#include "metis/util/check.h"

namespace metis::abr {

inline constexpr double kRebufferPenalty = 4.3;
inline constexpr double kSmoothPenalty = 1.0;

// Quality term q(R) for a bitrate in kbps.
[[nodiscard]] inline double quality(double bitrate_kbps) {
  MET_CHECK(bitrate_kbps > 0.0);
  return bitrate_kbps / 1000.0;
}

// Per-chunk QoE from the quality terms of this chunk's and the previous
// chunk's bitrates (q = quality(bitrate)), for callers that score many
// chunks over the same few bitrates.
[[nodiscard]] inline double chunk_qoe_from_quality(double q, double prev_q,
                                                   double rebuffer_seconds) {
  MET_CHECK(rebuffer_seconds >= 0.0);
  return q - kRebufferPenalty * rebuffer_seconds -
         kSmoothPenalty * std::abs(q - prev_q);
}

// Per-chunk QoE given this chunk's bitrate, the previous chunk's bitrate,
// and the rebuffering this chunk caused. First chunk: pass prev == current.
[[nodiscard]] inline double chunk_qoe(double bitrate_kbps,
                                      double prev_bitrate_kbps,
                                      double rebuffer_seconds) {
  return chunk_qoe_from_quality(quality(bitrate_kbps),
                                quality(prev_bitrate_kbps), rebuffer_seconds);
}

}  // namespace metis::abr
