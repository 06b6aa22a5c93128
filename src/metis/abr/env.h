// Discrete-time ABR playback environment.
//
// Models the client-side download/playback loop of DASH video (the
// environment Pensieve trains against): each step downloads the next chunk
// at the chosen level across a piecewise-constant bandwidth trace,
// advances the playback buffer, and pays Pensieve's QoE as reward.
//
// The same session core backs three consumers:
//  * AbrEnv (nn::DiscreteEnv)       — RL training + tree distillation
//  * run_abr_episode(policy)        — heuristic baselines and figures
//  * AbrRolloutEnv::lookahead       — model-based Q estimates for Eq. 1
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <vector>

#include "metis/abr/qoe.h"
#include "metis/abr/trace_gen.h"
#include "metis/abr/video.h"
#include "metis/nn/a2c.h"

namespace metis::abr {

inline constexpr double kRttSeconds = 0.08;
inline constexpr double kBufferCapSeconds = 60.0;
inline constexpr std::size_t kHistoryLen = 8;

// What any ABR policy may look at before choosing the next chunk's level.
struct AbrObservation {
  double buffer_seconds = 0.0;
  std::size_t last_level = 0;
  double last_bitrate_kbps = 0.0;
  // Most-recent-last histories (at most kHistoryLen entries; shorter
  // before the kHistoryLen-th download).
  std::vector<double> throughput_kbps;
  std::vector<double> download_seconds;
  std::vector<double> next_chunk_sizes_kbits;
  std::size_t next_chunk = 0;
  std::size_t chunks_remaining = 0;

  // Convenience: most recent throughput / download time (0 before the
  // first download).
  [[nodiscard]] double last_throughput_kbps() const;
  [[nodiscard]] double last_download_seconds() const;
};

// Heuristic/learned policy interface for the ABR domain.
class AbrPolicy {
 public:
  virtual ~AbrPolicy() = default;
  [[nodiscard]] virtual std::size_t decide(const AbrObservation& obs) = 0;
  // Called at episode start so stateful heuristics (FESTIVE) can reset.
  virtual void begin_episode() {}
  [[nodiscard]] virtual std::string name() const = 0;
};

// One downloaded chunk, for figures and debugging.
struct ChunkRecord {
  std::size_t chunk = 0;
  std::size_t level = 0;
  double bitrate_kbps = 0.0;
  double download_seconds = 0.0;
  double throughput_kbps = 0.0;   // achieved during this download
  double rebuffer_seconds = 0.0;
  double buffer_after = 0.0;      // seconds of video buffered
  double qoe = 0.0;
  double wall_time = 0.0;         // session clock after this chunk
};

struct EpisodeResult {
  std::vector<ChunkRecord> chunks;
  [[nodiscard]] double total_qoe() const;
  [[nodiscard]] double mean_qoe() const;
  [[nodiscard]] double total_rebuffer() const;
  [[nodiscard]] std::vector<double> level_frequencies(
      std::size_t levels) const;
};

// Deterministic playback session over one video + trace.
class AbrSession {
 public:
  AbrSession(const Video* video, const NetworkTrace* trace,
             double start_offset_seconds);

  [[nodiscard]] bool done() const;
  [[nodiscard]] AbrObservation observe() const;
  // Pensieve's state vector (see featurize) of the current session,
  // bitwise equal to featurize(observe(), video) without building the
  // observation — the per-step path of AbrEnv and its lookahead.
  [[nodiscard]] std::vector<double> features() const;
  // Downloads the next chunk at `level`; returns the record (including the
  // per-chunk QoE used as RL reward).
  ChunkRecord step(std::size_t level);

 private:
  const Video* video_;
  const NetworkTrace* trace_;
  double clock_;
  double buffer_ = 0.0;
  std::size_t next_chunk_ = 0;
  std::size_t last_level_ = 0;
  bool first_chunk_ = true;
  // Most-recent-last; the first hist_len_ entries are valid. Inline, so
  // copying a session (AbrEnv::peek_step) touches no heap.
  std::array<double, kHistoryLen> throughput_hist_{};
  std::array<double, kHistoryLen> download_hist_{};
  std::size_t hist_len_ = 0;
};

// Runs a full episode of `policy` on (video, trace).
EpisodeResult run_abr_episode(const Video& video, const NetworkTrace& trace,
                              AbrPolicy& policy,
                              double start_offset_seconds = 0.0);

// Pensieve's 25-dimensional state vector (Appendix C):
//   [ last bitrate, buffer, 8x throughput, 8x download time,
//     6x next-chunk sizes, chunks remaining ]  (all normalized)
inline constexpr std::size_t kStateDim = 25;
[[nodiscard]] std::vector<double> featurize(const AbrObservation& obs,
                                            const Video& video);

// The four decision variables of the Figure-7 tree: r_t (Mbps), theta_t
// (Mbps), B (s), T_t (s) — the interpretable feature view used when
// distilling Pensieve into a decision tree.
[[nodiscard]] std::vector<double> tree_features(const AbrObservation& obs);
[[nodiscard]] const std::vector<std::string>& tree_feature_names();

// RL adapter: episodes cycle deterministically over a trace corpus.
class AbrEnv final : public nn::DiscreteEnv {
 public:
  AbrEnv(Video video, std::vector<NetworkTrace> corpus);

  [[nodiscard]] std::size_t state_dim() const override { return kStateDim; }
  [[nodiscard]] std::size_t action_count() const override { return kLevels; }
  std::vector<double> reset(std::size_t episode_index) override;
  nn::StepResult step(std::size_t action) override;

  [[nodiscard]] const Video& video() const { return *video_; }
  [[nodiscard]] const std::vector<NetworkTrace>& corpus() const {
    return *corpus_;
  }
  [[nodiscard]] AbrObservation current_observation() const;

  // Model-based one-step lookahead for Eq. 1's Q estimates: simulates
  // taking `action` now and returns (reward, next feature vector) without
  // mutating the live session.
  [[nodiscard]] std::pair<double, std::vector<double>> peek_step(
      std::size_t action) const;

  // Fresh env with no live session, sharing this env's (immutable) video
  // and corpus rather than copying them. reset(e) on the clone replays
  // exactly the episode reset(e) starts here (episodes are pure functions
  // of the index), which is what lets the trace collector hand one cheap
  // clone to each episode every round.
  [[nodiscard]] std::unique_ptr<AbrEnv> clone_fresh() const {
    return std::unique_ptr<AbrEnv>(new AbrEnv(video_, corpus_));
  }

 private:
  AbrEnv(std::shared_ptr<const Video> video,
         std::shared_ptr<const std::vector<NetworkTrace>> corpus);

  // Shared and immutable: clones point at the same video/corpus, and
  // AbrSessions hold raw pointers into them.
  std::shared_ptr<const Video> video_;
  std::shared_ptr<const std::vector<NetworkTrace>> corpus_;
  std::size_t active_trace_ = 0;
  std::unique_ptr<AbrSession> session_;
};

}  // namespace metis::abr
