// Tests for the ABR substrate: video model, trace generation, playback
// dynamics, QoE, heuristic baselines, and the Pensieve teacher.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "metis/abr/baselines.h"
#include "metis/abr/env.h"
#include "metis/abr/oracle.h"
#include "metis/abr/pensieve.h"
#include "metis/abr/qoe.h"
#include "metis/abr/trace_gen.h"
#include "metis/abr/tree_policy.h"
#include "metis/abr/video.h"
#include "metis/tree/prune.h"
#include "metis/util/rng.h"
#include "metis/util/stats.h"

namespace metis::abr {
namespace {

Video test_video() { return Video(48, 7); }

TEST(Video, LadderMatchesPaper) {
  const auto& ladder = bitrate_ladder_kbps();
  ASSERT_EQ(ladder.size(), 6u);
  EXPECT_DOUBLE_EQ(ladder.front(), 300.0);
  EXPECT_DOUBLE_EQ(ladder.back(), 4300.0);
}

TEST(Video, ChunkSizesScaleWithBitrate) {
  Video v = test_video();
  for (std::size_t c = 0; c < v.chunk_count(); ++c) {
    for (std::size_t l = 1; l < v.level_count(); ++l) {
      EXPECT_GT(v.chunk_size_kbits(c, l), v.chunk_size_kbits(c, l - 1));
    }
  }
}

TEST(Video, ChunkSizesNearNominal) {
  Video v(100, 3);
  double total = 0.0;
  for (std::size_t c = 0; c < 100; ++c) total += v.chunk_size_kbits(c, 2);
  const double nominal = 1200.0 * kChunkSeconds;
  EXPECT_NEAR(total / 100.0, nominal, nominal * 0.1);
}

TEST(Video, DeterministicForSeed) {
  Video a(10, 42), b(10, 42), c(10, 43);
  EXPECT_DOUBLE_EQ(a.chunk_size_kbits(5, 3), b.chunk_size_kbits(5, 3));
  EXPECT_NE(a.chunk_size_kbits(5, 3), c.chunk_size_kbits(5, 3));
}

TEST(TraceGen, FixedTraceIsConstant) {
  NetworkTrace t = fixed_trace(3000.0, 100.0);
  EXPECT_DOUBLE_EQ(t.bandwidth_at(0.0), 3000.0);
  EXPECT_DOUBLE_EQ(t.bandwidth_at(99.5), 3000.0);
  EXPECT_DOUBLE_EQ(t.mean_kbps(), 3000.0);
}

TEST(TraceGen, BandwidthWrapsForLongSessions) {
  NetworkTrace t = fixed_trace(500.0, 10.0);
  EXPECT_DOUBLE_EQ(t.bandwidth_at(25.0), 500.0);  // wraps past duration
}

TEST(TraceGen, HsdpaLowerAndBurstierThanFcc) {
  TraceGenConfig hsdpa;
  hsdpa.family = TraceFamily::kHsdpa;
  TraceGenConfig fcc;
  fcc.family = TraceFamily::kFcc;
  auto hs = generate_corpus(hsdpa, 20, 1);
  auto fc = generate_corpus(fcc, 20, 2);
  double hs_mean = 0.0, fc_mean = 0.0;
  for (const auto& t : hs) hs_mean += t.mean_kbps();
  for (const auto& t : fc) fc_mean += t.mean_kbps();
  hs_mean /= 20;
  fc_mean /= 20;
  EXPECT_LT(hs_mean, fc_mean);
  EXPECT_GT(hs_mean, 500.0);   // sane 3G regime
  EXPECT_LT(fc_mean, 5000.0);  // sane broadband regime
}

TEST(TraceGen, DeterministicCorpus) {
  TraceGenConfig cfg;
  auto a = generate_corpus(cfg, 3, 9);
  auto b = generate_corpus(cfg, 3, 9);
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(a[i].bandwidth_kbps.size(), b[i].bandwidth_kbps.size());
    EXPECT_DOUBLE_EQ(a[i].bandwidth_kbps[100], b[i].bandwidth_kbps[100]);
  }
}

TEST(Qoe, MatchesDefinition) {
  // 2850 kbps after 1850 kbps with 0.5 s rebuffering:
  // 2.85 - 4.3*0.5 - |2.85-1.85| = -0.3
  EXPECT_NEAR(chunk_qoe(2850, 1850, 0.5), -0.3, 1e-12);
  EXPECT_NEAR(chunk_qoe(4300, 4300, 0.0), 4.3, 1e-12);
}

TEST(Session, DownloadTimeMatchesFixedBandwidth) {
  Video v = test_video();
  NetworkTrace t = fixed_trace(1200.0, 4000.0);
  AbrSession s(&v, &t, 0.0);
  ChunkRecord rec = s.step(2);  // 1200 kbps chunk on a 1200 kbps link
  const double expected =
      v.chunk_size_kbits(0, 2) / 1200.0 + kRttSeconds;
  EXPECT_NEAR(rec.download_seconds, expected, 1e-6);
  EXPECT_NEAR(rec.throughput_kbps,
              v.chunk_size_kbits(0, 2) / rec.download_seconds, 1e-6);
}

TEST(Session, BufferGrowsWhenDownloadFasterThanPlayback) {
  Video v = test_video();
  NetworkTrace t = fixed_trace(10000.0, 4000.0);
  AbrSession s(&v, &t, 0.0);
  double prev_buffer = 0.0;
  for (int i = 0; i < 5; ++i) {
    ChunkRecord rec = s.step(0);  // tiny chunks on a fat pipe
    EXPECT_GT(rec.buffer_after, prev_buffer);
    prev_buffer = rec.buffer_after;
  }
}

TEST(Session, RebuffersWhenLinkTooSlow) {
  Video v = test_video();
  NetworkTrace t = fixed_trace(300.0, 40000.0);
  AbrSession s(&v, &t, 0.0);
  ChunkRecord first = s.step(5);  // 4300 kbps chunk on a 300 kbps link
  EXPECT_GT(first.rebuffer_seconds, 10.0);
  EXPECT_LT(first.qoe, 0.0);
}

TEST(Session, BufferNeverExceedsCap) {
  Video v(200, 5);
  NetworkTrace t = fixed_trace(50000.0, 100000.0);
  AbrSession s(&v, &t, 0.0);
  while (!s.done()) {
    ChunkRecord rec = s.step(0);
    EXPECT_LE(rec.buffer_after, kBufferCapSeconds + 1e-9);
  }
}

TEST(Session, ObservationHistoriesBounded) {
  Video v = test_video();
  NetworkTrace t = fixed_trace(2000.0, 40000.0);
  AbrSession s(&v, &t, 0.0);
  for (int i = 0; i < 20 && !s.done(); ++i) s.step(1);
  AbrObservation obs = s.observe();
  EXPECT_EQ(obs.throughput_kbps.size(), kHistoryLen);
  EXPECT_EQ(obs.download_seconds.size(), kHistoryLen);
}

TEST(Featurize, DimensionAndRange) {
  Video v = test_video();
  NetworkTrace t = fixed_trace(2000.0, 40000.0);
  AbrSession s(&v, &t, 0.0);
  for (int i = 0; i < 3; ++i) s.step(2);
  auto f = featurize(s.observe(), v);
  ASSERT_EQ(f.size(), kStateDim);
  for (double x : f) {
    EXPECT_TRUE(std::isfinite(x));
    EXPECT_GE(x, -0.001);
  }
}

TEST(Featurize, TreeFeaturesMatchObservation) {
  Video v = test_video();
  NetworkTrace t = fixed_trace(2000.0, 40000.0);
  AbrSession s(&v, &t, 0.0);
  s.step(3);  // 1850 kbps
  auto f = tree_features(s.observe());
  ASSERT_EQ(f.size(), tree_feature_names().size());
  EXPECT_NEAR(f[0], 1.85, 1e-9);              // r_t in Mbps
  EXPECT_GT(f[1], 0.0);                        // theta_t
  EXPECT_DOUBLE_EQ(f[2], 0.0);                 // theta_{t-1}: one download so far
  EXPECT_DOUBLE_EQ(f[3], 0.0);                 // theta_{t-2}
  EXPECT_NEAR(f[4], f[1], 1e-9);               // hm over one sample = theta_t
  EXPECT_GT(f[5], 0.0);                        // buffer
  EXPECT_GT(f[6], 0.0);                        // T_t
  EXPECT_DOUBLE_EQ(f[8],
                   static_cast<double>(s.observe().chunks_remaining));
}

TEST(Baselines, BufferBasedMonotonicInBuffer) {
  BufferBasedPolicy bb;
  AbrObservation low, mid, high;
  low.buffer_seconds = 2.0;
  mid.buffer_seconds = 10.0;
  high.buffer_seconds = 20.0;
  EXPECT_EQ(bb.decide(low), 0u);
  EXPECT_GT(bb.decide(mid), bb.decide(low));
  EXPECT_EQ(bb.decide(high), kLevels - 1);
}

TEST(Baselines, RateBasedPicksSustainableRate) {
  RateBasedPolicy rb;
  AbrObservation obs;
  obs.throughput_kbps = {2000.0, 2000.0, 2000.0};
  EXPECT_EQ(rb.decide(obs), 3u);  // 1850 is the highest <= 2000
  obs.throughput_kbps = {250.0};
  EXPECT_EQ(rb.decide(obs), 0u);
  AbrObservation empty;
  EXPECT_EQ(rb.decide(empty), 0u);
}

TEST(Baselines, HarmonicMeanPenalizesDips) {
  const double hm = harmonic_mean_recent({1000.0, 100.0, 1000.0}, 3);
  EXPECT_LT(hm, 400.0);  // harmonic mean is dominated by the dip
}

TEST(Baselines, FestiveStepsUpOnlyAfterPatience) {
  FestivePolicy festive(0.85, 3, 5);
  festive.begin_episode();
  AbrObservation obs;
  obs.last_level = 1;
  obs.last_bitrate_kbps = 750.0;
  obs.throughput_kbps = {4000.0, 4000.0, 4000.0, 4000.0, 4000.0};
  EXPECT_EQ(festive.decide(obs), 1u);  // patience 1
  EXPECT_EQ(festive.decide(obs), 1u);  // patience 2
  EXPECT_EQ(festive.decide(obs), 2u);  // steps up exactly one level
}

TEST(Baselines, BolaPrefersHigherBitrateWithFullerBuffer) {
  BolaPolicy bola;
  AbrObservation starved, full;
  starved.buffer_seconds = 1.0;
  full.buffer_seconds = 40.0;
  EXPECT_LE(bola.decide(starved), bola.decide(full));
  EXPECT_EQ(bola.decide(starved), 0u);
}

TEST(Baselines, MpcConvergesOnFixedLink) {
  // On a stable 3000 kbps link at its steady-state buffer level, rMPC
  // picks 2850 kbps (the sustainable maximum) — the Figure 13 behaviour.
  // (With a very large buffer cushion MPC's finite horizon would overshoot;
  // the steady state keeps the buffer moderate.)
  RobustMpcPolicy mpc;
  AbrObservation obs;
  obs.buffer_seconds = 6.0;
  obs.last_level = 4;
  obs.last_bitrate_kbps = 2850.0;
  obs.throughput_kbps = {3000.0, 3000.0, 3000.0, 3000.0, 3000.0};
  obs.chunks_remaining = 30;
  EXPECT_EQ(mpc.decide(obs), 4u);
}

TEST(Baselines, EndToEndEpisodesProduceSaneQoe) {
  Video v = test_video();
  NetworkTrace t = fixed_trace(3000.0, 40000.0);
  for (auto& policy : standard_baselines()) {
    EpisodeResult r = run_abr_episode(v, t, *policy);
    ASSERT_EQ(r.chunks.size(), v.chunk_count()) << policy->name();
    EXPECT_GT(r.mean_qoe(), 0.0) << policy->name();
    EXPECT_LT(r.total_rebuffer(), 5.0) << policy->name();
  }
}

TEST(Baselines, MpcBeatsFixedLowestOnGoodLink) {
  Video v = test_video();
  NetworkTrace t = fixed_trace(3000.0, 40000.0);
  RobustMpcPolicy mpc;
  FixedLowestPolicy fixed;
  EXPECT_GT(run_abr_episode(v, t, mpc).mean_qoe(),
            run_abr_episode(v, t, fixed).mean_qoe());
}

TEST(AbrEnv, ResetIsDeterministicPerEpisode) {
  Video v = test_video();
  TraceGenConfig cfg;
  AbrEnv env(v, generate_corpus(cfg, 4, 11));
  auto s1 = env.reset(3);
  auto s2 = env.reset(3);
  ASSERT_EQ(s1.size(), s2.size());
  for (std::size_t i = 0; i < s1.size(); ++i) EXPECT_DOUBLE_EQ(s1[i], s2[i]);
}

TEST(AbrEnv, EpisodeTerminatesAfterAllChunks) {
  Video v(10, 3);
  AbrEnv env(v, {fixed_trace(2000.0, 4000.0)});
  env.reset(0);
  int steps = 0;
  for (;; ++steps) {
    auto sr = env.step(1);
    if (sr.done) break;
  }
  EXPECT_EQ(steps + 1, 10);
}

TEST(AbrEnv, PeekStepDoesNotMutate) {
  Video v = test_video();
  AbrEnv env(v, {fixed_trace(2000.0, 4000.0)});
  env.reset(0);
  auto [r1, s1] = env.peek_step(2);
  auto [r2, s2] = env.peek_step(2);
  EXPECT_DOUBLE_EQ(r1, r2);
  auto live = env.step(2);
  EXPECT_DOUBLE_EQ(live.reward, r1);
  for (std::size_t i = 0; i < s1.size(); ++i) {
    EXPECT_DOUBLE_EQ(live.next_state[i], s1[i]);
  }
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// AbrSession::features() featurizes the session directly; it must equal
// featurize(observe()) bit for bit at every chunk of whole episodes —
// the first chunk (empty histories), across the kHistoryLen wrap, and at
// done() — while observe() keeps its most-recent-last, at most
// kHistoryLen long histories.
TEST(Featurize, SessionFeaturesMatchObservationPath) {
  Video v = test_video();
  TraceGenConfig cfg;
  const auto corpus = generate_corpus(cfg, 4, 23);
  for (std::size_t tr = 0; tr < corpus.size(); ++tr) {
    AbrSession s(&v, &corpus[tr], 3.0 * static_cast<double>(tr));
    std::vector<double> th, dl;  // expected histories, oldest first
    for (std::size_t t = 0;; ++t) {
      const AbrObservation obs = s.observe();
      EXPECT_EQ(obs.throughput_kbps, th) << "trace " << tr << " chunk " << t;
      EXPECT_EQ(obs.download_seconds, dl) << "trace " << tr << " chunk " << t;
      EXPECT_TRUE(same_bits(s.features(), featurize(obs, v)))
          << "trace " << tr << " chunk " << t;
      if (s.done()) break;
      const ChunkRecord rec = s.step((t * 7 + tr) % kLevels);
      th.push_back(rec.throughput_kbps);
      dl.push_back(rec.download_seconds);
      if (th.size() > kHistoryLen) {
        th.erase(th.begin());
        dl.erase(dl.begin());
      }
    }
    EXPECT_EQ(th.size(), kHistoryLen);  // the episode crossed the wrap
  }
}

// AbrEnv's per-step states (reset, step, peek_step) come from the direct
// features; each must equal the observation path, and every peek_step(a)
// must equal actually stepping an identical env with action a.
TEST(AbrEnv, DirectFeaturesMatchObservationAndPeekMatchesStep) {
  Video v(12, 5);
  TraceGenConfig cfg;
  AbrEnv env(v, generate_corpus(cfg, 3, 29));
  for (std::size_t episode = 0; episode < 3; ++episode) {
    std::vector<double> state = env.reset(episode);
    std::vector<std::size_t> taken;
    for (bool done = false; !done;) {
      EXPECT_TRUE(same_bits(state, featurize(env.current_observation(), v)))
          << "episode " << episode << " chunk " << taken.size();
      for (std::size_t a = 0; a < kLevels; ++a) {
        const auto [reward, next] = env.peek_step(a);
        auto twin = env.clone_fresh();
        (void)twin->reset(episode);
        for (std::size_t prev : taken) (void)twin->step(prev);
        const nn::StepResult stepped = twin->step(a);
        EXPECT_TRUE(same_bits({reward}, {stepped.reward}))
            << "episode " << episode << " chunk " << taken.size() << " a=" << a;
        EXPECT_TRUE(same_bits(next, stepped.next_state))
            << "episode " << episode << " chunk " << taken.size() << " a=" << a;
      }
      const std::size_t action = (taken.size() * 5 + episode) % kLevels;
      const nn::StepResult sr = env.step(action);
      taken.push_back(action);
      state = sr.next_state;
      done = sr.done;
    }
    EXPECT_TRUE(same_bits(state, featurize(env.current_observation(), v)));
    EXPECT_EQ(taken.size(), v.chunk_count());
  }
}

TEST(Pensieve, TrainingImprovesOverUntrained) {
  Video v(30, 7);
  TraceGenConfig cfg;
  cfg.family = TraceFamily::kHsdpa;
  cfg.duration_seconds = 600.0;
  AbrEnv env(v, generate_corpus(cfg, 12, 21));

  PensieveConfig pc;
  pc.seed = 5;
  pc.train.episodes = 120;
  pc.train.max_steps = 40;
  pc.train.eval_episodes = 12;
  PensieveAgent agent(pc);
  const double before =
      nn::evaluate_greedy(agent.net(), env, 12, 40);
  auto result = agent.train(env);
  EXPECT_GT(result.final_mean_return, before);
}

TEST(Pensieve, ModifiedStructureHasSkipConnection) {
  PensieveConfig plain, modified;
  modified.modified_structure = true;
  PensieveAgent a(plain), b(modified);
  EXPECT_EQ(a.net().skip_feature(), -1);
  EXPECT_EQ(b.net().skip_feature(), 0);
}

TEST(TreePolicy, FollowsTreePredictions) {
  // Tree: choose level 0 when buffer <= 8, else level 4.
  tree::Dataset d;
  d.feature_names = tree_feature_names();
  for (int i = 0; i < 50; ++i) {
    const double buf = i * 0.4;
    std::vector<double> row(tree_feature_names().size(), 1.0);
    row[5] = buf;  // "B"
    d.add(std::move(row), buf <= 8.0 ? 0.0 : 4.0);
  }
  tree::FitConfig cfg;
  tree::DecisionTree t = tree::DecisionTree::fit(d, cfg);
  TreeAbrPolicy policy(t);
  AbrObservation low, high;
  low.buffer_seconds = 2.0;
  low.last_bitrate_kbps = 1000.0;
  low.throughput_kbps = {2000.0};
  low.download_seconds = {1.0};
  high = low;
  high.buffer_seconds = 20.0;
  EXPECT_EQ(policy.decide(low), 0u);
  EXPECT_EQ(policy.decide(high), 4u);
}

TEST(TreePolicy, RejectsRegressionTree) {
  tree::Dataset d;
  for (int i = 0; i < 10; ++i) d.add({double(i), 0, 0, 0}, 0.5 * i);
  tree::FitConfig cfg;
  cfg.task = tree::Task::kRegression;
  tree::DecisionTree t = tree::DecisionTree::fit(d, cfg);
  EXPECT_THROW(TreeAbrPolicy policy(t), std::logic_error);
}

// Property sweep: every baseline returns a valid level on randomized
// observations (no crashes, no out-of-range levels).
class BaselineFuzz : public ::testing::TestWithParam<int> {};

TEST_P(BaselineFuzz, AlwaysReturnsValidLevel) {
  metis::Rng rng(GetParam());
  auto policies = standard_baselines();
  for (int i = 0; i < 200; ++i) {
    AbrObservation obs;
    obs.buffer_seconds = rng.uniform(0.0, 60.0);
    obs.last_level = rng.uniform_int(kLevels);
    obs.last_bitrate_kbps = bitrate_ladder_kbps()[obs.last_level];
    const std::size_t hist = rng.uniform_int(kHistoryLen) + 1;
    for (std::size_t h = 0; h < hist; ++h) {
      obs.throughput_kbps.push_back(rng.uniform(100.0, 8000.0));
      obs.download_seconds.push_back(rng.uniform(0.1, 12.0));
    }
    obs.chunks_remaining = rng.uniform_int(48) + 1;
    for (auto& p : policies) {
      const std::size_t level = p->decide(obs);
      EXPECT_LT(level, kLevels) << p->name();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BaselineFuzz, ::testing::Values(1, 2, 3));


// ---- omniscient oracle planner (Appendix-style offline optimal) ---------------

TEST(Oracle, PlaysEveryChunk) {
  Video v(12, 3);
  NetworkTrace t = fixed_trace(2000.0, 600.0);
  OraclePlanConfig cfg;
  cfg.horizon = 2;
  auto r = run_oracle_episode(v, t, cfg);
  EXPECT_EQ(r.chunks.size(), 12u);
}

TEST(Oracle, BeatsFixedLowestOnAmpleLink) {
  Video v(16, 3);
  NetworkTrace t = fixed_trace(3000.0, 600.0);
  OraclePlanConfig cfg;
  cfg.horizon = 3;
  FixedLowestPolicy lowest;
  const double q_low = run_abr_episode(v, t, lowest).mean_qoe();
  const double q_oracle = run_oracle_episode(v, t, cfg).mean_qoe();
  EXPECT_GT(q_oracle, q_low + 0.5);
}

TEST(Oracle, LongerHorizonNeverMuchWorse) {
  Video v(16, 3);
  TraceGenConfig tc;
  tc.family = TraceFamily::kFcc;
  tc.duration_seconds = 400.0;
  NetworkTrace t = generate_trace(tc, 42);
  OraclePlanConfig h1;
  h1.horizon = 1;
  OraclePlanConfig h3;
  h3.horizon = 3;
  const double q1 = run_oracle_episode(v, t, h1).mean_qoe();
  const double q3 = run_oracle_episode(v, t, h3).mean_qoe();
  EXPECT_GT(q3, q1 - 0.05);  // deeper lookahead should not lose
}

TEST(Oracle, DemosCarryStatesActionsAndReturns) {
  Video v(10, 3);
  NetworkTrace t = fixed_trace(1500.0, 600.0);
  OraclePlanConfig cfg;
  cfg.horizon = 2;
  std::vector<DemoStep> demos;
  auto r = run_oracle_episode(v, t, cfg, 0.0, &demos, 0.9);
  ASSERT_EQ(demos.size(), r.chunks.size());
  for (std::size_t i = 0; i < demos.size(); ++i) {
    EXPECT_EQ(demos[i].state.size(), kStateDim);
    EXPECT_LT(demos[i].action, kLevels);
    EXPECT_EQ(demos[i].action, r.chunks[i].level);
  }
  // Return recursion: G_i = qoe_i + gamma * G_{i+1}.
  for (std::size_t i = 0; i + 1 < demos.size(); ++i) {
    EXPECT_NEAR(demos[i].mc_return,
                r.chunks[i].qoe + 0.9 * demos[i + 1].mc_return, 1e-9);
  }
}

TEST(Oracle, CollectRespectsOffsetsPerTrace) {
  Video v(8, 3);
  std::vector<NetworkTrace> corpus = {fixed_trace(1000.0, 600.0),
                                      fixed_trace(2000.0, 600.0)};
  OraclePlanConfig cfg;
  cfg.horizon = 1;
  auto demos = collect_oracle_demos(v, corpus, cfg, 0.97, 3);
  EXPECT_EQ(demos.size(), 2u * 3u * 8u);
}

// ---- causal MPC expert ---------------------------------------------------------

TEST(CausalExpert, StartsSafeWithoutHistory) {
  CausalMpcExpert expert;
  AbrObservation obs;
  obs.buffer_seconds = 0.0;
  obs.next_chunk_sizes_kbits.assign(kLevels, 1200.0);
  EXPECT_EQ(expert.decide(obs), 0u);
}

TEST(CausalExpert, PicksHighBitrateOnFatStableLink) {
  CausalMpcExpert expert;
  AbrObservation obs;
  obs.buffer_seconds = 20.0;
  obs.last_level = 5;
  obs.last_bitrate_kbps = 4300.0;
  obs.throughput_kbps = {9000.0, 9100.0, 8900.0, 9000.0, 9050.0};
  obs.download_seconds = {1.9, 1.9, 1.9, 1.9, 1.9};
  obs.next_chunk_sizes_kbits.assign(kLevels, 0.0);
  obs.chunks_remaining = 20;
  EXPECT_EQ(expert.decide(obs), kLevels - 1);
}

TEST(CausalExpert, BeatsRateBasedOnVolatileTraces) {
  Video v(32, 5);
  TraceGenConfig tc;
  tc.family = TraceFamily::kHsdpa;
  tc.duration_seconds = 600.0;
  CausalMpcExpert expert;
  RateBasedPolicy rb;
  double q_e = 0.0, q_rb = 0.0;
  for (std::uint64_t seed = 60; seed < 66; ++seed) {
    NetworkTrace t = generate_trace(tc, seed);
    q_e += run_abr_episode(v, t, expert).mean_qoe();
    q_rb += run_abr_episode(v, t, rb).mean_qoe();
  }
  EXPECT_GT(q_e, q_rb);
}

TEST(CausalExpert, OmniscientOracleDominatesIt) {
  // The oracle sees the real future; the causal expert only predicts it.
  Video v(24, 5);
  TraceGenConfig tc;
  tc.family = TraceFamily::kHsdpa;
  tc.duration_seconds = 600.0;
  OraclePlanConfig ocfg;
  ocfg.horizon = 3;
  CausalMpcExpert expert;
  double q_oracle = 0.0, q_expert = 0.0;
  for (std::uint64_t seed = 80; seed < 85; ++seed) {
    NetworkTrace t = generate_trace(tc, seed);
    q_oracle += run_oracle_episode(v, t, ocfg).mean_qoe();
    q_expert += run_abr_episode(v, t, expert).mean_qoe();
  }
  EXPECT_GT(q_oracle, q_expert - 0.1);
}

// The exhaustive planner CausalMpcExpert::decide replaced: every plan
// scored from scratch, codes scanned in ascending order, the first strict
// maximum kept. Returns the chosen level; `scores`, if given, receives
// every plan's score by code.
std::size_t reference_mpc_decide(const CausalMpcConfig& cfg,
                                 const AbrObservation& obs,
                                 std::vector<double>* scores = nullptr) {
  const auto& ladder = bitrate_ladder_kbps();
  const double hm = harmonic_mean_recent(obs.throughput_kbps, cfg.window);
  if (hm <= 0.0) return 0;
  std::vector<double> errs;
  const std::size_t n = obs.throughput_kbps.size();
  const std::size_t w = std::min(cfg.window, n);
  for (std::size_t i = n - w; i < n; ++i) {
    errs.push_back(std::abs(obs.throughput_kbps[i] - hm) /
                   std::max(obs.throughput_kbps[i], 1e-9));
  }
  const double pred =
      hm / (1.0 + metis::percentile(errs, cfg.error_percentile));
  const std::size_t steps = std::min<std::size_t>(
      cfg.horizon, std::max<std::size_t>(obs.chunks_remaining, 1));
  double best_score = -std::numeric_limits<double>::infinity();
  std::size_t best_first = 0;
  std::vector<std::size_t> seq(steps, 0);
  std::size_t total = 1;
  for (std::size_t i = 0; i < steps; ++i) total *= ladder.size();
  for (std::size_t code = 0; code < total; ++code) {
    std::size_t c = code;
    for (std::size_t i = 0; i < steps; ++i) {
      seq[i] = c % ladder.size();
      c /= ladder.size();
    }
    double buffer = obs.buffer_seconds;
    double prev_rate =
        obs.last_bitrate_kbps > 0.0 ? obs.last_bitrate_kbps : ladder[seq[0]];
    double score = 0.0;
    for (std::size_t i = 0; i < steps; ++i) {
      const double rate = ladder[seq[i]];
      const double kbits =
          (i == 0 && seq[i] < obs.next_chunk_sizes_kbits.size() &&
           obs.next_chunk_sizes_kbits[seq[i]] > 0.0)
              ? obs.next_chunk_sizes_kbits[seq[i]]
              : rate * kChunkSeconds;
      const double dl = kbits / pred;
      const double rebuffer = std::max(dl - buffer, 0.0);
      buffer = std::max(buffer - dl, 0.0) + kChunkSeconds;
      score += chunk_qoe(rate, prev_rate, rebuffer);
      prev_rate = rate;
    }
    score += cfg.terminal_buffer_bonus *
             std::min(buffer, cfg.terminal_buffer_cap_s);
    if (scores != nullptr) scores->push_back(score);
    if (score > best_score) {
      best_score = score;
      best_first = seq[0];
    }
  }
  return best_first;
}

// A seeded observation spread over the planner's branches: empty
// histories (hm <= 0), no previous chunk, fewer chunks left than the
// horizon (down to 0), next-chunk size lists short, empty or with zero
// (unobserved) entries, and buffers from empty to far past the cap.
AbrObservation random_observation(metis::Rng& rng) {
  const auto& ladder = bitrate_ladder_kbps();
  AbrObservation obs;
  obs.buffer_seconds = rng.bernoulli(0.1)   ? 0.0
                       : rng.bernoulli(0.1) ? rng.uniform(30.0, 120.0)
                                            : rng.uniform(0.0, 30.0);
  if (rng.bernoulli(0.85)) {
    obs.last_level = rng.uniform_int(kLevels);
    obs.last_bitrate_kbps = ladder[obs.last_level];
  }
  const std::size_t history =
      rng.bernoulli(0.05) ? 0 : 1 + rng.uniform_int(kHistoryLen);
  for (std::size_t i = 0; i < history; ++i) {
    obs.throughput_kbps.push_back(std::exp(rng.uniform(std::log(150.0),
                                                       std::log(9000.0))));
    obs.download_seconds.push_back(rng.uniform(0.2, 12.0));
  }
  const std::size_t sizes = rng.bernoulli(0.15)
                                ? rng.uniform_int(kLevels)
                                : kLevels;
  for (std::size_t l = 0; l < sizes; ++l) {
    obs.next_chunk_sizes_kbits.push_back(
        rng.bernoulli(0.1) ? 0.0
                           : ladder[l] * kChunkSeconds * rng.uniform(0.7, 1.3));
  }
  obs.chunks_remaining = rng.uniform_int(12);
  obs.next_chunk = 30 - std::min<std::size_t>(obs.chunks_remaining, 30);
  return obs;
}

TEST(CausalExpert, PrefixSearchMatchesExhaustiveScan) {
  struct Case {
    CausalMpcConfig cfg;
    std::size_t observations;
  };
  std::vector<Case> cases = {{CausalMpcConfig{}, 2000}};
  {
    CausalMpcConfig c;
    c.horizon = 3;
    c.error_percentile = 50.0;
    c.window = 3;
    cases.push_back({c, 300});
  }
  {
    CausalMpcConfig c;
    c.horizon = 1;
    c.terminal_buffer_bonus = 0.0;
    cases.push_back({c, 200});
  }
  {
    CausalMpcConfig c;
    c.horizon = 6;
    c.terminal_buffer_cap_s = 8.0;
    cases.push_back({c, 40});
  }
  metis::Rng rng(2026);
  std::size_t short_horizon = 0, no_history = 0, missing_sizes = 0;
  for (const Case& c : cases) {
    CausalMpcExpert expert(c.cfg);
    for (std::size_t i = 0; i < c.observations; ++i) {
      const AbrObservation obs = random_observation(rng);
      short_horizon += obs.chunks_remaining < c.cfg.horizon ? 1 : 0;
      no_history += obs.throughput_kbps.empty() ? 1 : 0;
      missing_sizes += obs.next_chunk_sizes_kbits.size() < kLevels ? 1 : 0;
      ASSERT_EQ(expert.decide(obs), reference_mpc_decide(c.cfg, obs))
          << "horizon " << c.cfg.horizon << ", observation " << i;
    }
  }
  EXPECT_GT(short_horizon, 100u);
  EXPECT_GT(no_history, 20u);
  EXPECT_GT(missing_sizes, 100u);
}

TEST(CausalExpert, ScoreTiesGoToTheLowestPlanCode) {
  // One chunk left and a buffer far past the terminal cap: no plan
  // rebuffers and every plan earns the same capped bonus. From the lowest
  // bitrate, a level's score is q - (q - q_0): equal to q_0 in exact
  // arithmetic, so several levels tie at the top after rounding too.
  AbrObservation obs;
  obs.buffer_seconds = 200.0;
  obs.last_level = 0;
  obs.last_bitrate_kbps = bitrate_ladder_kbps()[0];
  obs.throughput_kbps = {5000.0, 5000.0, 5000.0};
  obs.download_seconds = {1.0, 1.0, 1.0};
  obs.chunks_remaining = 1;
  CausalMpcConfig cfg;
  std::vector<double> scores;
  const std::size_t want = reference_mpc_decide(cfg, obs, &scores);
  ASSERT_EQ(scores.size(), kLevels);
  const double top = *std::max_element(scores.begin(), scores.end());
  std::vector<std::size_t> tied;
  for (std::size_t l = 0; l < kLevels; ++l) {
    if (scores[l] == top) tied.push_back(l);
  }
  ASSERT_GE(tied.size(), 2u) << "the observation no longer builds a tie";
  EXPECT_EQ(want, tied.front());
  CausalMpcExpert expert(cfg);
  EXPECT_EQ(expert.decide(obs), want);
}

// ---- behavior-cloned teacher ----------------------------------------------------

TEST(Pretrain, CloneTracksTheExpert) {
  Video v(24, 5);
  TraceGenConfig tc;
  tc.family = TraceFamily::kFcc;
  tc.duration_seconds = 500.0;
  auto corpus = generate_corpus(tc, 6, 300);
  AbrEnv env(v, corpus);
  PensieveConfig pc;
  pc.seed = 5;
  PensieveAgent agent(pc);
  PensieveAgent::PretrainConfig pt;
  pt.bc.epochs = 300;
  pt.dagger_rounds = 1;
  const double ce = agent.pretrain(env, pt);
  EXPECT_LT(ce, 0.8);

  // The clone should act like the expert far more often than chance.
  CausalMpcExpert expert;
  std::size_t match = 0, total = 0;
  for (std::size_t ep = 0; ep < 4; ++ep) {
    env.reset(ep);
    while (true) {
      const auto obs = env.current_observation();
      match += agent.act(obs, v) == expert.decide(obs) ? 1u : 0u;
      ++total;
      if (env.step(expert.decide(obs)).done) break;
    }
  }
  EXPECT_GT(static_cast<double>(match) / static_cast<double>(total), 0.5);
}

}  // namespace
}  // namespace metis::abr

