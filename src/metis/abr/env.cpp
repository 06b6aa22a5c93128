#include "metis/abr/env.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <span>
#include <type_traits>

#include "metis/util/check.h"
#include "metis/util/stats.h"

namespace metis::abr {

double AbrObservation::last_throughput_kbps() const {
  return throughput_kbps.empty() ? 0.0 : throughput_kbps.back();
}

double AbrObservation::last_download_seconds() const {
  return download_seconds.empty() ? 0.0 : download_seconds.back();
}

double EpisodeResult::total_qoe() const {
  double s = 0.0;
  for (const auto& c : chunks) s += c.qoe;
  return s;
}

double EpisodeResult::mean_qoe() const {
  MET_CHECK(!chunks.empty());
  return total_qoe() / static_cast<double>(chunks.size());
}

double EpisodeResult::total_rebuffer() const {
  double s = 0.0;
  for (const auto& c : chunks) s += c.rebuffer_seconds;
  return s;
}

std::vector<double> EpisodeResult::level_frequencies(
    std::size_t levels) const {
  std::vector<double> freq(levels, 0.0);
  for (const auto& c : chunks) {
    MET_CHECK(c.level < levels);
    freq[c.level] += 1.0;
  }
  if (!chunks.empty()) {
    for (double& f : freq) f /= static_cast<double>(chunks.size());
  }
  return freq;
}

namespace {

// featurize() over the observation's parts, so AbrSession::features can
// share it without building an AbrObservation.
std::vector<double> state_vector(double last_bitrate_kbps,
                                 double buffer_seconds,
                                 std::span<const double> throughput_kbps,
                                 std::span<const double> download_seconds,
                                 std::span<const double> next_chunk_sizes_kbits,
                                 std::size_t chunks_remaining,
                                 const Video& video) {
  const double max_rate = bitrate_ladder_kbps().back();
  std::vector<double> s;
  s.reserve(kStateDim);
  s.push_back(last_bitrate_kbps / max_rate);
  s.push_back(buffer_seconds / 10.0);
  for (std::size_t i = 0; i < kHistoryLen; ++i) {
    const std::size_t n = throughput_kbps.size();
    s.push_back(i < n ? throughput_kbps[n - 1 - i] / max_rate : 0.0);
  }
  for (std::size_t i = 0; i < kHistoryLen; ++i) {
    const std::size_t n = download_seconds.size();
    s.push_back(i < n ? download_seconds[n - 1 - i] / 10.0 : 0.0);
  }
  const double max_chunk = max_rate * video.chunk_seconds();
  for (std::size_t l = 0; l < video.level_count(); ++l) {
    s.push_back(l < next_chunk_sizes_kbits.size()
                    ? next_chunk_sizes_kbits[l] / max_chunk
                    : 0.0);
  }
  s.push_back(static_cast<double>(chunks_remaining) /
              static_cast<double>(video.chunk_count()));
  MET_CHECK(s.size() == kStateDim);
  return s;
}

}  // namespace

AbrSession::AbrSession(const Video* video, const NetworkTrace* trace,
                       double start_offset_seconds)
    : video_(video), trace_(trace), clock_(start_offset_seconds) {
  MET_CHECK(video != nullptr && trace != nullptr);
  MET_CHECK(start_offset_seconds >= 0.0);
}

bool AbrSession::done() const { return next_chunk_ >= video_->chunk_count(); }

AbrObservation AbrSession::observe() const {
  AbrObservation obs;
  obs.buffer_seconds = buffer_;
  obs.last_level = last_level_;
  obs.last_bitrate_kbps = first_chunk_ ? 0.0 : video_->bitrate_kbps(last_level_);
  obs.throughput_kbps.assign(throughput_hist_.begin(),
                             throughput_hist_.begin() + hist_len_);
  obs.download_seconds.assign(download_hist_.begin(),
                              download_hist_.begin() + hist_len_);
  if (!done()) {
    obs.next_chunk_sizes_kbits = video_->next_chunk_sizes_kbits(next_chunk_);
  } else {
    obs.next_chunk_sizes_kbits.assign(video_->level_count(), 0.0);
  }
  obs.next_chunk = next_chunk_;
  obs.chunks_remaining = video_->chunk_count() - next_chunk_;
  return obs;
}

std::vector<double> AbrSession::features() const {
  std::array<double, kLevels> next_sizes{};  // zeros once done()
  if (!done()) {
    for (std::size_t l = 0; l < kLevels; ++l) {
      next_sizes[l] = video_->chunk_size_kbits(next_chunk_, l);
    }
  }
  return state_vector(
      first_chunk_ ? 0.0 : video_->bitrate_kbps(last_level_), buffer_,
      {throughput_hist_.data(), hist_len_}, {download_hist_.data(), hist_len_},
      next_sizes, video_->chunk_count() - next_chunk_, *video_);
}

ChunkRecord AbrSession::step(std::size_t level) {
  MET_CHECK(!done());
  MET_CHECK(level < video_->level_count());

  const double size_kbits = video_->chunk_size_kbits(next_chunk_, level);

  // Walk the piecewise-constant trace until the chunk is delivered.
  double t = clock_ + kRttSeconds;  // request latency
  double remaining = size_kbits;
  while (remaining > 0.0) {
    const double bw = trace_->bandwidth_at(t);
    // Time left inside the current 1-second bandwidth slot.
    const double slot_end =
        (std::floor(t / trace_->step_seconds) + 1.0) * trace_->step_seconds;
    const double dt = std::max(slot_end - t, 1e-6);
    const double deliverable = bw * dt;
    if (deliverable >= remaining) {
      t += remaining / bw;
      remaining = 0.0;
    } else {
      remaining -= deliverable;
      t = slot_end;
    }
  }
  const double download_time = t - clock_;
  MET_CHECK(download_time > 0.0);

  // Playback drains the buffer while we download.
  const double rebuffer = std::max(download_time - buffer_, 0.0);
  buffer_ = std::max(buffer_ - download_time, 0.0) + video_->chunk_seconds();
  clock_ = t;

  // If the buffer overflows the client cap, the player pauses downloads.
  if (buffer_ > kBufferCapSeconds) {
    const double wait = buffer_ - kBufferCapSeconds;
    clock_ += wait;
    buffer_ = kBufferCapSeconds;
  }

  const double bitrate = video_->bitrate_kbps(level);
  const double prev_bitrate =
      first_chunk_ ? bitrate : video_->bitrate_kbps(last_level_);

  ChunkRecord rec;
  rec.chunk = next_chunk_;
  rec.level = level;
  rec.bitrate_kbps = bitrate;
  rec.download_seconds = download_time;
  rec.throughput_kbps = size_kbits / download_time;
  rec.rebuffer_seconds = rebuffer;
  rec.buffer_after = buffer_;
  rec.qoe = chunk_qoe(bitrate, prev_bitrate, rebuffer);
  rec.wall_time = clock_;

  if (hist_len_ == kHistoryLen) {  // drop the oldest entry
    std::shift_left(throughput_hist_.begin(), throughput_hist_.end(), 1);
    std::shift_left(download_hist_.begin(), download_hist_.end(), 1);
    --hist_len_;
  }
  throughput_hist_[hist_len_] = rec.throughput_kbps;
  download_hist_[hist_len_] = rec.download_seconds;
  ++hist_len_;
  last_level_ = level;
  first_chunk_ = false;
  ++next_chunk_;
  return rec;
}

EpisodeResult run_abr_episode(const Video& video, const NetworkTrace& trace,
                              AbrPolicy& policy,
                              double start_offset_seconds) {
  AbrSession session(&video, &trace, start_offset_seconds);
  policy.begin_episode();
  EpisodeResult result;
  result.chunks.reserve(video.chunk_count());
  while (!session.done()) {
    const std::size_t level = policy.decide(session.observe());
    result.chunks.push_back(session.step(level));
  }
  return result;
}

std::vector<double> featurize(const AbrObservation& obs, const Video& video) {
  return state_vector(obs.last_bitrate_kbps, obs.buffer_seconds,
                      obs.throughput_kbps, obs.download_seconds,
                      obs.next_chunk_sizes_kbits, obs.chunks_remaining, video);
}

std::vector<double> tree_features(const AbrObservation& obs) {
  const auto& th = obs.throughput_kbps;
  const auto& dl = obs.download_seconds;
  auto back = [](const std::vector<double>& xs, std::size_t ago) {
    return xs.size() > ago ? xs[xs.size() - 1 - ago] : 0.0;
  };
  // Harmonic-mean throughput over the last 5 chunks (what rate-based
  // heuristics predict with) — 0 before the first download.
  double hm = 0.0;
  if (!th.empty()) {
    const std::size_t n = std::min<std::size_t>(5, th.size());
    double denom = 0.0;
    for (std::size_t i = th.size() - n; i < th.size(); ++i) {
      denom += 1.0 / std::max(th[i], 1e-9);
    }
    hm = static_cast<double>(n) / denom;
  }
  return {obs.last_bitrate_kbps / 1000.0,
          back(th, 0) / 1000.0,
          back(th, 1) / 1000.0,
          back(th, 2) / 1000.0,
          hm / 1000.0,
          obs.buffer_seconds,
          back(dl, 0),
          back(dl, 1),
          static_cast<double>(obs.chunks_remaining)};
}

const std::vector<std::string>& tree_feature_names() {
  static const std::vector<std::string> names = {
      "rt",  "theta_t", "theta_t-1", "theta_t-2", "theta_hm5",
      "B",   "Tt",      "Tt-1",      "chunks_left"};
  return names;
}

AbrEnv::AbrEnv(Video video, std::vector<NetworkTrace> corpus)
    : AbrEnv(std::make_shared<const Video>(std::move(video)),
             std::make_shared<const std::vector<NetworkTrace>>(
                 std::move(corpus))) {}

AbrEnv::AbrEnv(std::shared_ptr<const Video> video,
               std::shared_ptr<const std::vector<NetworkTrace>> corpus)
    : video_(std::move(video)), corpus_(std::move(corpus)) {
  MET_CHECK(!corpus_->empty());
}

std::vector<double> AbrEnv::reset(std::size_t episode_index) {
  active_trace_ = episode_index % corpus_->size();
  // Deterministic per-episode start offset: later laps over the corpus
  // start at different points of the (long) trace. Split-style derivation
  // keeps the episode a pure function of its index, so it replays
  // identically on any env clone.
  metis::Rng offset_rng = metis::Rng::derive(0x5eedULL, episode_index);
  const double max_offset =
      std::max((*corpus_)[active_trace_].duration_seconds() / 2.0, 1.0);
  const double offset = offset_rng.uniform(0.0, max_offset);
  session_ = std::make_unique<AbrSession>(
      video_.get(), &(*corpus_)[active_trace_], offset);
  return session_->features();
}

nn::StepResult AbrEnv::step(std::size_t action) {
  MET_CHECK_MSG(session_ != nullptr, "call reset() before step()");
  const ChunkRecord rec = session_->step(action);
  nn::StepResult sr;
  sr.reward = rec.qoe;
  sr.done = session_->done();
  sr.next_state = session_->features();
  return sr;
}

AbrObservation AbrEnv::current_observation() const {
  MET_CHECK(session_ != nullptr);
  return session_->observe();
}

std::pair<double, std::vector<double>> AbrEnv::peek_step(
    std::size_t action) const {
  MET_CHECK(session_ != nullptr);
  static_assert(std::is_trivially_copyable_v<AbrSession>);
  AbrSession copy = *session_;  // no heap traffic
  const ChunkRecord rec = copy.step(action);
  return {rec.qoe, copy.features()};
}

}  // namespace metis::abr
