// Tests for the network front-end: the length-prefixed wire codec
// (round-trips, arbitrary read fragmentation, oversized/malformed input),
// and serve::Server's two planes — inline FlatTree query serving (bitwise
// identical to in-process evaluation, across concurrent connections) and
// the admission-controlled control plane (BUSY replies, poll/result flow,
// clean shutdown with in-flight jobs).
//
// The robustness battery lives here too: EventLoop timers, idle/write-
// stall reaping, bounded graceful stop, wire-level job cancellation,
// auto-deploy of distilled trees, client timeouts/retry/reconnect, and
// the Chaos.* tests that replay a seeded util::FaultPlan through the
// net::io syscall shim (run standalone via `ctest -R Chaos`; override the
// schedule with METIS_CHAOS_SEED).
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "metis/api/registry.h"
#include "metis/net/client.h"
#include "metis/net/event_loop.h"
#include "metis/net/io.h"
#include "metis/net/wire.h"
#include "metis/serve/server.h"
#include "metis/store/snapshot_store.h"
#include "metis/tree/flat_tree.h"
#include "metis/tree/tree_io.h"
#include "metis/util/fault.h"
#include "metis/util/rng.h"

namespace metis {
namespace {

// ---- fixtures ---------------------------------------------------------------

std::string unique_socket_path() {
  static std::atomic<int> counter{0};
  return "/tmp/metis_net_test_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

// Small but non-trivial tree over 3 features.
tree::DecisionTree make_test_tree() {
  Rng rng(5);
  tree::Dataset data;
  for (std::size_t i = 0; i < 500; ++i) {
    std::vector<double> row = {rng.uniform(), rng.uniform(), rng.uniform()};
    const double label = (row[0] > 0.5 ? 2.0 : 0.0) + (row[1] > row[2]);
    data.add(std::move(row), label);
  }
  return tree::DecisionTree::fit(
      data, {.task = tree::Task::kClassification, .max_depth = 6});
}

std::vector<std::vector<double>> random_features(std::size_t n,
                                                 std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> out(n);
  for (auto& row : out) row = {rng.uniform(), rng.uniform(), rng.uniform()};
  return out;
}

bool bit_equal(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

class RuleTeacher final : public core::Teacher {
 public:
  std::size_t action_count() const override { return 2; }
  std::size_t act(std::span<const double> state) const override {
    return state[0] > 0.5 ? 1 : 0;
  }
  double value(std::span<const double>) const override { return 0.0; }
};

// Blocks every episode until the gate opens — lets tests hold a distill
// job "running" for as long as they need.
struct Gate {
  std::mutex mu;
  std::condition_variable cv;
  bool open = false;

  void release() {
    {
      std::lock_guard<std::mutex> lock(mu);
      open = true;
    }
    cv.notify_all();
  }
  void close() {
    std::lock_guard<std::mutex> lock(mu);
    open = false;
  }
  void wait() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return open; });
  }
};

class GatedEnv final : public core::RolloutEnv {
 public:
  explicit GatedEnv(std::shared_ptr<Gate> gate) : gate_(std::move(gate)) {}

  std::size_t action_count() const override { return 2; }
  std::vector<double> reset(std::size_t episode) override {
    gate_->wait();
    rng_ = Rng::derive(99, episode);
    t_ = 0;
    x_ = rng_.uniform();
    return {x_, 1.0 - x_};
  }
  nn::StepResult step(std::size_t) override {
    x_ = rng_.uniform();
    ++t_;
    nn::StepResult sr;
    sr.done = t_ >= 5;
    sr.next_state = {x_, 1.0 - x_};
    return sr;
  }
  std::vector<double> interpretable_features() const override { return {x_}; }
  std::shared_ptr<core::RolloutEnv> clone() const override {
    return std::make_shared<GatedEnv>(gate_);
  }

 private:
  std::shared_ptr<Gate> gate_;
  Rng rng_{0};
  double x_ = 0.0;
  std::size_t t_ = 0;
};

class GatedScenario final : public api::Scenario {
 public:
  explicit GatedScenario(std::shared_ptr<Gate> gate)
      : gate_(std::move(gate)) {}
  std::string key() const override { return "gated"; }
  std::string description() const override { return "gated rule policy"; }
  api::LocalSystem make_local(const api::ScenarioOptions&) const override {
    api::LocalSystem sys;
    sys.teacher = std::make_shared<RuleTeacher>();
    sys.env = std::make_shared<GatedEnv>(gate_);
    sys.distill_defaults.collect.episodes = 2;
    sys.distill_defaults.collect.max_steps = 5;
    sys.distill_defaults.dagger_iterations = 1;
    sys.distill_defaults.max_leaves = 4;
    sys.distill_defaults.feature_names = {"x"};
    return sys;
  }

 private:
  std::shared_ptr<Gate> gate_;
};

// ---- wire codec -------------------------------------------------------------

TEST(Wire, FrameRoundTrip) {
  net::Frame in;
  in.type = net::MsgType::kQuery;
  in.payload = {1, 2, 3, 0, 255};
  net::FrameDecoder decoder;
  decoder.feed(net::encode_frame(in));
  net::Frame out;
  ASSERT_TRUE(decoder.next(out));
  EXPECT_EQ(out.type, in.type);
  EXPECT_EQ(out.payload, in.payload);
  EXPECT_FALSE(decoder.next(out));
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
}

TEST(Wire, DecoderHandlesArbitraryFragmentation) {
  // Three frames of different types/sizes in one byte stream.
  std::vector<net::Frame> frames;
  frames.push_back(net::ErrorReply{"boom"}.encode());
  frames.push_back(net::QueryRequest{7, 42, {0.25, -1.5, 3.0}}.encode());
  frames.push_back(net::SessionOpenedReply{12345}.encode());
  std::vector<std::uint8_t> bytes;
  for (const auto& f : frames) net::encode_frame(f, bytes);

  // Byte-at-a-time.
  {
    net::FrameDecoder decoder;
    std::vector<net::Frame> out;
    net::Frame f;
    for (std::uint8_t b : bytes) {
      decoder.feed(&b, 1);
      while (decoder.next(f)) out.push_back(f);
    }
    ASSERT_EQ(out.size(), frames.size());
    for (std::size_t i = 0; i < frames.size(); ++i) {
      EXPECT_EQ(out[i].type, frames[i].type);
      EXPECT_EQ(out[i].payload, frames[i].payload);
    }
  }
  // Random chunk sizes.
  {
    Rng rng(17);
    net::FrameDecoder decoder;
    std::vector<net::Frame> out;
    net::Frame f;
    std::size_t pos = 0;
    while (pos < bytes.size()) {
      const std::size_t n = std::min<std::size_t>(
          1 + rng.uniform_int(7), bytes.size() - pos);
      decoder.feed(bytes.data() + pos, n);
      pos += n;
      while (decoder.next(f)) out.push_back(f);
    }
    ASSERT_EQ(out.size(), frames.size());
    for (std::size_t i = 0; i < frames.size(); ++i) {
      EXPECT_EQ(out[i].payload, frames[i].payload);
    }
  }
}

TEST(Wire, OversizedFrameRejected) {
  net::Frame big;
  big.type = net::MsgType::kQuery;
  big.payload.assign(64, 0);
  net::FrameDecoder decoder(/*max_frame_bytes=*/16);
  decoder.feed(net::encode_frame(big));
  net::Frame out;
  EXPECT_THROW((void)decoder.next(out), net::WireError);
}

TEST(Wire, ZeroLengthAndUnknownTypeRejected) {
  {
    net::FrameDecoder decoder;
    const std::uint8_t zero_len[4] = {0, 0, 0, 0};
    decoder.feed(zero_len, 4);
    net::Frame out;
    EXPECT_THROW((void)decoder.next(out), net::WireError);
  }
  {
    net::FrameDecoder decoder;
    // length 1, type byte 99 (no such MsgType).
    const std::uint8_t unknown[5] = {1, 0, 0, 0, 99};
    decoder.feed(unknown, 5);
    net::Frame out;
    EXPECT_THROW((void)decoder.next(out), net::WireError);
  }
}

TEST(Wire, DoublesTravelBitwise) {
  const std::vector<double> tricky = {
      0.0, -0.0, 1.0 / 3.0, std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(), -1e308};
  const net::QueryRequest in{11, 22, tricky};
  const auto out = net::QueryRequest::decode(in.encode());
  EXPECT_EQ(out.session, in.session);
  EXPECT_EQ(out.seq, in.seq);
  ASSERT_EQ(out.features.size(), tricky.size());
  for (std::size_t i = 0; i < tricky.size(); ++i) {
    EXPECT_TRUE(bit_equal(out.features[i], tricky[i])) << "feature " << i;
  }

  const net::DecisionReply reply{1, 2, -0.0};
  EXPECT_TRUE(bit_equal(net::DecisionReply::decode(reply.encode()).decision,
                        -0.0));
}

TEST(Wire, SubmitRequestsRoundTripSparseOverrides) {
  net::SubmitDistillRequest in;
  in.scenario = "abr";
  in.overrides.episodes = 12;
  in.overrides.resample = false;
  in.overrides.seed = 0xdeadbeefcafeULL;
  // episodes/resample/seed set; everything else must stay nullopt.
  const auto out = net::SubmitDistillRequest::decode(in.encode());
  EXPECT_EQ(out.scenario, "abr");
  EXPECT_EQ(out.overrides.episodes, in.overrides.episodes);
  EXPECT_EQ(out.overrides.resample, in.overrides.resample);
  EXPECT_EQ(out.overrides.seed, in.overrides.seed);
  EXPECT_FALSE(out.overrides.max_steps.has_value());
  EXPECT_FALSE(out.overrides.dagger_iterations.has_value());
  EXPECT_FALSE(out.overrides.max_leaves.has_value());
  EXPECT_FALSE(out.overrides.deadline_ms.has_value());

  // The older 8-optional layout carried a collection-shard count between
  // resample and seed; no payload in it may decode into a job. The first five
  // fields parse alike in both layouts. After them the old payload holds
  // three optionals of 1 or 9 bytes (3 + 8p bytes) where the parser reads
  // two (2 + 8q bytes); the counts never agree, so every such payload
  // either runs out early or leaves trailing bytes.
  for (int layout = 0; layout < 16; ++layout) {
    net::PayloadWriter w;
    w.str("abr");
    const auto opt_u64 = [&w](bool present, std::uint64_t v) {
      w.u8(present ? 1 : 0);
      if (present) w.u64(v);
    };
    const bool prefix = (layout & 1) != 0;
    opt_u64(prefix, 12);    // episodes
    opt_u64(false, 0);      // max_steps
    opt_u64(false, 0);      // dagger_iterations
    opt_u64(prefix, 16);    // max_leaves
    w.u8(prefix ? 1 : 0);   // resample
    if (prefix) w.u8(0);
    opt_u64((layout & 2) != 0, 2);                  // shard count
    opt_u64((layout & 4) != 0, 0xdeadbeefcafeULL);  // seed
    opt_u64((layout & 8) != 0, 5000);               // deadline_ms
    const net::Frame old{net::MsgType::kSubmitDistill, w.take()};
    EXPECT_THROW((void)net::SubmitDistillRequest::decode(old), net::WireError)
        << "old layout " << layout;
  }

  net::SubmitInterpretRequest iin;
  iin.scenario = "nfv";
  iin.overrides.lambda1 = 0.25;
  iin.overrides.steps = 100;
  const auto iout = net::SubmitInterpretRequest::decode(iin.encode());
  EXPECT_EQ(iout.scenario, "nfv");
  EXPECT_EQ(iout.overrides.lambda1, iin.overrides.lambda1);
  EXPECT_EQ(iout.overrides.steps, iin.overrides.steps);
  EXPECT_FALSE(iout.overrides.lr.has_value());
}

TEST(Wire, TruncatedAndTrailingPayloadRejected) {
  net::Frame good = net::SessionOpenedReply{77}.encode();
  {
    net::Frame truncated = good;
    truncated.payload.pop_back();
    EXPECT_THROW((void)net::SessionOpenedReply::decode(truncated),
                 net::WireError);
  }
  {
    net::Frame trailing = good;
    trailing.payload.push_back(0);
    EXPECT_THROW((void)net::SessionOpenedReply::decode(trailing),
                 net::WireError);
  }
  {
    net::Frame wrong_type = good;
    wrong_type.type = net::MsgType::kDecision;
    EXPECT_THROW((void)net::SessionOpenedReply::decode(wrong_type),
                 net::WireError);
  }
  // An element count the payload cannot hold is rejected before anything
  // is reserved for it (not std::bad_alloc).
  {
    const net::Frame huge_list{net::MsgType::kTreeList,
                               {0xFF, 0xFF, 0xFF, 0xFF}};
    EXPECT_THROW((void)net::TreeListReply::decode(huge_list), net::WireError);
    net::Frame huge_result{net::MsgType::kInterpretResult,
                           std::vector<std::uint8_t>(32, 0)};
    huge_result.payload.insert(huge_result.payload.end(), 4, 0xFF);
    EXPECT_THROW((void)net::InterpretResultReply::decode(huge_result),
                 net::WireError);
  }
}

TEST(Wire, JobStatusAndResultsRoundTrip) {
  net::JobStatusReply st;
  st.job = 9;
  st.status = 3;
  st.rounds_done = 1;
  st.rounds_total = 2;
  st.episodes_done = 5;
  st.episodes_total = 10;
  st.error = "late failure";
  const auto st2 = net::JobStatusReply::decode(st.encode());
  EXPECT_EQ(st2.job, st.job);
  EXPECT_EQ(st2.status, st.status);
  EXPECT_EQ(st2.episodes_done, st.episodes_done);
  EXPECT_EQ(st2.error, st.error);

  net::DistillResultReply dr;
  dr.job = 4;
  dr.samples = 960;
  dr.leaves = 8;
  dr.fidelity = 0.9375;
  dr.tree_text = "serialized tree\nwith lines\n";
  const auto dr2 = net::DistillResultReply::decode(dr.encode());
  EXPECT_EQ(dr2.samples, dr.samples);
  EXPECT_EQ(dr2.leaves, dr.leaves);
  EXPECT_TRUE(bit_equal(dr2.fidelity, dr.fidelity));
  EXPECT_EQ(dr2.tree_text, dr.tree_text);

  net::InterpretResultReply ir;
  ir.job = 5;
  ir.divergence = 0.125;
  ir.edges = {0, 1, 2};
  ir.vertices = {3, 4, 5};
  ir.masks = {0.9, 0.5, 0.1};
  const auto ir2 = net::InterpretResultReply::decode(ir.encode());
  EXPECT_EQ(ir2.edges, ir.edges);
  EXPECT_EQ(ir2.vertices, ir.vertices);
  ASSERT_EQ(ir2.masks.size(), 3u);
  EXPECT_TRUE(bit_equal(ir2.masks[0], 0.9));

  // Ragged connection columns must not encode.
  ir.masks.pop_back();
  EXPECT_THROW((void)ir.encode(), net::WireError);
}

TEST(Wire, TreeListRoundTrip) {
  // The request carries no payload, and trailing bytes are rejected.
  const net::Frame req = net::ListTreesRequest{}.encode();
  EXPECT_EQ(req.type, net::MsgType::kListTrees);
  EXPECT_TRUE(req.payload.empty());
  (void)net::ListTreesRequest::decode(req);
  net::Frame trailing = req;
  trailing.payload.push_back(0);
  EXPECT_THROW((void)net::ListTreesRequest::decode(trailing), net::WireError);

  net::TreeListReply reply;
  reply.names = {"abr", "congestion", "weird/key"};
  reply.versions = {7, 0, 12};
  const auto back = net::TreeListReply::decode(reply.encode());
  EXPECT_EQ(back.names, reply.names);
  EXPECT_EQ(back.versions, reply.versions);

  const auto empty = net::TreeListReply::decode(net::TreeListReply{}.encode());
  EXPECT_TRUE(empty.names.empty());
  EXPECT_TRUE(empty.versions.empty());

  // Ragged name/version columns must not encode.
  reply.versions.pop_back();
  EXPECT_THROW((void)reply.encode(), net::WireError);
}

// Hex of a byte string, two lowercase digits a byte.
std::string to_hex(const std::vector<std::uint8_t>& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (std::uint8_t b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 15]);
  }
  return out;
}

std::vector<std::uint8_t> from_hex(const std::string& hex) {
  std::vector<std::uint8_t> out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(
        static_cast<std::uint8_t>(std::stoi(hex.substr(i, 2), nullptr, 16)));
  }
  return out;
}

// Pins `m`'s framed bytes and decodes them back. Encoding is injective
// (every field, presence flag and row lands in the bytes), so a decoded
// message that re-encodes to the pinned bytes is `m` field for field, and
// bit for bit in its doubles.
template <typename M>
void expect_pinned(const M& m, const std::string& hex,
                   std::vector<net::MsgType>& seen) {
  const net::Frame frame = m.encode();
  seen.push_back(frame.type);
  SCOPED_TRACE(net::to_string(frame.type));
  EXPECT_EQ(to_hex(net::encode_frame(frame)), hex);
  net::FrameDecoder decoder;
  decoder.feed(from_hex(hex));
  net::Frame pinned;
  ASSERT_TRUE(decoder.next(pinned));
  EXPECT_EQ(pinned.type, frame.type);
  EXPECT_EQ(to_hex(net::encode_frame(M::decode(pinned).encode())), hex);
}

// The protocol's golden bytes: one message of every type, every field set
// to a non-default value, each framed as it travels. A change to any
// layout (field order, width, presence flags, row interleaving) fails
// here even when encode and decode change together.
TEST(Wire, EveryMessageEncodesToPinnedBytes) {
  const double denorm = std::numeric_limits<double>::denorm_min();
  std::vector<net::MsgType> seen;

  expect_pinned(net::ErrorReply{"bad request"},
                "10000000000b0000006261642072657175657374",
                seen);
  expect_pinned(net::BusyReply{"job limit"},
                "0e00000001090000006a6f62206c696d6974",
                seen);
  expect_pinned(net::OpenSessionRequest{"abr"},
                "080000000203000000616272",
                seen);
  expect_pinned(net::SessionOpenedReply{0x0123456789abcdefULL},
                "0900000003efcdab8967452301",
                seen);
  expect_pinned(net::QueryRequest{7, 42, {-0.0, denorm, 1.5}},
                "2d0000000407000000000000002a0000000000000003000000000000"
                "00000000800100000000000000000000000000f83f",
                seen);
  expect_pinned(net::DecisionReply{7, 42, -2.5},
                "190000000507000000000000002a0000000000000000000000000004"
                "c0",
                seen);

  net::SubmitDistillRequest distill_all;
  distill_all.scenario = "abr";
  distill_all.overrides = {.episodes = 12,
                           .max_steps = 48,
                           .dagger_iterations = 3,
                           .max_leaves = 64,
                           .resample = true,
                           .seed = 0xdeadbeefcafeULL,
                           .deadline_ms = 5000};
  expect_pinned(distill_all,
                "400000000603000000616272010c0000000000000001300000000000"
                "0000010300000000000000014000000000000000010101fecaefbead"
                "de0000018813000000000000",
                seen);
  net::SubmitDistillRequest distill_mix;
  distill_mix.scenario = "pensieve";
  distill_mix.overrides.episodes = 4;
  distill_mix.overrides.resample = false;
  distill_mix.overrides.deadline_ms = 250;
  expect_pinned(distill_mix,
                "25000000060800000070656e73696576650104000000000000000000"
                "0001000001fa00000000000000",
                seen);

  net::SubmitInterpretRequest interpret_all;
  interpret_all.scenario = "routing";
  interpret_all.overrides = {.lambda1 = 0.25,
                             .lambda2 = -0.0,
                             .steps = 100,
                             .lr = 1e-3,
                             .seed = 9,
                             .deadline_ms = 60000};
  expect_pinned(interpret_all,
                "420000000707000000726f7574696e6701000000000000d03f010000"
                "00000000008001640000000000000001fca9f1d24d62503f01090000"
                "00000000000160ea000000000000",
                seen);
  net::SubmitInterpretRequest interpret_mix;
  interpret_mix.scenario = "nfv";
  interpret_mix.overrides.lambda2 = denorm;
  interpret_mix.overrides.lr = 0.5;
  interpret_mix.overrides.seed = 0xffffffffffffffffULL;
  expect_pinned(interpret_mix,
                "2600000007030000006e667600010100000000000000000100000000"
                "0000e03f01ffffffffffffffff00",
                seen);

  expect_pinned(net::SubmittedReply{17}, "09000000081100000000000000", seen);
  expect_pinned(net::PollRequest{18}, "09000000091200000000000000", seen);

  net::JobStatusReply status;
  status.job = 19;
  status.status = 4;
  status.rounds_done = 1;
  status.rounds_total = 3;
  status.episodes_done = 5;
  status.episodes_total = 12;
  status.steps_done = 240;
  status.steps_total = 576;
  status.error = "late failure";
  expect_pinned(status,
                "4a0000000a1300000000000000040100000000000000030000000000"
                "000005000000000000000c00000000000000f0000000000000004002"
                "0000000000000c0000006c617465206661696c757265",
                seen);

  expect_pinned(net::ResultRequest{20}, "090000000b1400000000000000", seen);
  expect_pinned(net::DistillResultReply{21, 960, 9, 0.9375, "tree\ntext"},
                "2a0000000c1500000000000000c00300000000000009000000000000"
                "000000ee3f09000000747265650a74657874",
                seen);
  expect_pinned(net::CancelJobRequest{22}, "090000000e1600000000000000", seen);
  expect_pinned(net::CancelResultReply{22, true},
                "0a0000000f160000000000000001",
                seen);
  expect_pinned(net::ListTreesRequest{}, "0100000010", seen);
  expect_pinned(net::TreeListReply{{"abr", "routing"}, {7, 0x100000000ULL}},
                "27000000110200000003000000616272070000000000000007000000"
                "726f7574696e670000000001000000",
                seen);
  expect_pinned(net::InterpretResultReply{23, 0.125, 3.5, 0.693, {4, 70000},
                                          {5, 1}, {0.9, denorm}},
                "450000000d1700000000000000000000000000c03f0000000000000c"
                "40931804560e2de63f020000000400000005000000cdccccccccccec"
                "3f70110100010000000100000000000000",
                seen);

  // Every MsgType is pinned at least once.
  for (std::uint8_t t = 0;
       t <= static_cast<std::uint8_t>(net::MsgType::kTreeList); ++t) {
    const auto type = static_cast<net::MsgType>(t);
    EXPECT_NE(std::find(seen.begin(), seen.end(), type), seen.end())
        << "no pinned bytes for " << net::to_string(type);
  }
}

// ---- server: query plane ----------------------------------------------------

TEST(Server, ServedDecisionsBitwiseIdenticalToInProcess) {
  const tree::DecisionTree dtree = make_test_tree();
  const tree::FlatTree flat = tree::FlatTree::compile(dtree);

  serve::ServerConfig cfg;
  cfg.unix_path = unique_socket_path();
  cfg.service.workers = 1;
  serve::Server server(cfg);
  server.add_tree("t", tree::FlatTree::compile(dtree));
  server.start();

  net::Client client = net::Client::connect_unix(cfg.unix_path);
  const std::uint64_t sid = client.open_session("t");
  const auto queries = random_features(200, 31);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const double served = client.query(sid, i, queries[i]);
    EXPECT_TRUE(bit_equal(served, flat.predict(queries[i]))) << "query " << i;
  }
  EXPECT_EQ(server.stats().decisions_served, queries.size());
  server.stop();
}

TEST(Server, ConcurrentConnectionsAndSessionsStayBitwise) {
  const tree::DecisionTree dtree = make_test_tree();
  const tree::FlatTree flat = tree::FlatTree::compile(dtree);

  serve::ServerConfig cfg;
  cfg.unix_path = unique_socket_path();
  cfg.service.workers = 1;
  serve::Server server(cfg);
  server.add_tree("t", tree::FlatTree::compile(dtree));
  server.start();

  constexpr std::size_t kThreads = 6;
  constexpr std::size_t kSessions = 20;  // per connection
  constexpr std::size_t kRounds = 30;
  std::atomic<std::uint64_t> mismatches{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      net::Client client = net::Client::connect_unix(cfg.unix_path);
      std::vector<std::uint64_t> sids(kSessions);
      for (auto& sid : sids) sid = client.open_session("t");
      const auto queries = random_features(kSessions * kRounds, 100 + t);
      for (std::size_t r = 0; r < kRounds; ++r) {
        // Pipelined: all sessions query, then all replies.
        for (std::size_t s = 0; s < kSessions; ++s) {
          client.send_frame(
              net::QueryRequest{sids[s], s, queries[r * kSessions + s]}
                  .encode());
        }
        for (std::size_t s = 0; s < kSessions; ++s) {
          const auto reply = net::DecisionReply::decode(client.read_frame());
          const auto& q = queries[r * kSessions + reply.seq];
          if (!bit_equal(reply.decision, flat.predict(q))) ++mismatches;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(server.stats().decisions_served, kThreads * kSessions * kRounds);
  EXPECT_EQ(server.stats().sessions_opened, kThreads * kSessions);
  server.stop();
}

TEST(Server, UnknownTreeAndSessionAreRecoverableErrors) {
  serve::ServerConfig cfg;
  cfg.unix_path = unique_socket_path();
  cfg.service.workers = 1;
  serve::Server server(cfg);
  server.add_tree("t", tree::FlatTree::compile(make_test_tree()));
  server.start();

  net::Client client = net::Client::connect_unix(cfg.unix_path);
  EXPECT_THROW((void)client.open_session("no-such-tree"), net::WireError);
  EXPECT_THROW((void)client.query(4242, 0, {0.1, 0.2, 0.3}), net::WireError);
  // The connection survives both errors.
  const std::uint64_t sid = client.open_session("t");
  EXPECT_NO_THROW((void)client.query(sid, 0, {0.1, 0.2, 0.3}));
  server.stop();
}

TEST(Server, MalformedPayloadGetsErrorReplyAndConnectionSurvives) {
  serve::ServerConfig cfg;
  cfg.unix_path = unique_socket_path();
  cfg.service.workers = 1;
  serve::Server server(cfg);
  server.add_tree("t", tree::FlatTree::compile(make_test_tree()));
  server.start();

  net::Client client = net::Client::connect_unix(cfg.unix_path);
  // Well-framed but garbage payload for kQuery.
  net::Frame bad;
  bad.type = net::MsgType::kQuery;
  bad.payload = {1, 2, 3};
  const net::Frame reply = client.call(bad);
  EXPECT_EQ(reply.type, net::MsgType::kError);
  // Reply types sent as requests are errors too, not disconnects.
  const net::Frame reply2 = client.call(net::SessionOpenedReply{1}.encode());
  EXPECT_EQ(reply2.type, net::MsgType::kError);
  // Still serving.
  const std::uint64_t sid = client.open_session("t");
  EXPECT_NO_THROW((void)client.query(sid, 0, {0.5, 0.5, 0.5}));
  EXPECT_GE(server.stats().error_replies, 2u);
  server.stop();
}

TEST(Server, TcpLoopbackServesDecisions) {
  const tree::DecisionTree dtree = make_test_tree();
  const tree::FlatTree flat = tree::FlatTree::compile(dtree);
  serve::ServerConfig cfg;
  cfg.unix_path = unique_socket_path();
  cfg.tcp = true;
  cfg.tcp_port = 0;  // ephemeral
  cfg.service.workers = 1;
  serve::Server server(cfg);
  server.add_tree("t", tree::FlatTree::compile(dtree));
  server.start();
  ASSERT_NE(server.tcp_port(), 0);

  net::Client client = net::Client::connect_tcp("127.0.0.1",
                                                server.tcp_port());
  const std::uint64_t sid = client.open_session("t");
  const auto queries = random_features(20, 77);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_TRUE(bit_equal(client.query(sid, i, queries[i]),
                          flat.predict(queries[i])));
  }
  server.stop();
}

// ---- server: control plane --------------------------------------------------

TEST(Server, AdmissionControlRepliesBusy) {
  auto gate = std::make_shared<Gate>();
  api::ScenarioRegistry registry;
  registry.add(std::make_unique<GatedScenario>(gate));

  serve::ServerConfig cfg;
  cfg.unix_path = unique_socket_path();
  cfg.max_inflight_jobs = 2;
  cfg.max_jobs_per_connection = 1;
  cfg.service.workers = 1;
  cfg.service.registry = &registry;
  serve::Server server(cfg);
  server.start();

  net::Client a = net::Client::connect_unix(cfg.unix_path);
  net::Client b = net::Client::connect_unix(cfg.unix_path);
  net::Client c = net::Client::connect_unix(cfg.unix_path);

  // a: admitted (occupies the worker at the gate).
  const auto job_a = a.submit_distill("gated", {});
  ASSERT_TRUE(job_a.has_value());
  // a again: per-connection quota (1) → BUSY.
  EXPECT_FALSE(a.submit_distill("gated", {}).has_value());
  // b: admitted (second server-wide slot).
  const auto job_b = b.submit_distill("gated", {});
  ASSERT_TRUE(job_b.has_value());
  // c: server-wide cap (2) → BUSY.
  EXPECT_FALSE(c.submit_distill("gated", {}).has_value());
  EXPECT_EQ(server.stats().busy_replies, 2u);
  EXPECT_EQ(server.stats().jobs_admitted, 2u);

  // Result before the job is done is an error, not a hang.
  EXPECT_THROW((void)a.distill_result(*job_a), net::WireError);

  gate->release();
  // Poll both jobs to completion over the wire.
  for (const std::uint64_t job : {*job_a, *job_b}) {
    net::JobStatusReply status;
    do {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      status = a.poll(job);
    } while (!serve::is_terminal(static_cast<serve::JobStatus>(status.status)));
    EXPECT_EQ(static_cast<serve::JobStatus>(status.status),
              serve::JobStatus::kDone)
        << status.error;
  }

  // With both jobs terminal, admission has room again.
  const auto job_c = c.submit_distill("gated", {});
  EXPECT_TRUE(job_c.has_value());

  // And the finished job's result round-trips as a deployable tree.
  const auto result = a.distill_result(*job_a);
  EXPECT_GT(result.samples, 0u);
  EXPECT_GT(result.leaves, 0u);
  const tree::DecisionTree again = tree::deserialize(result.tree_text);
  EXPECT_EQ(again.leaf_count(), result.leaves);
  server.stop();
}

TEST(Server, PollUnknownJobIsError) {
  serve::ServerConfig cfg;
  cfg.unix_path = unique_socket_path();
  cfg.service.workers = 1;
  serve::Server server(cfg);
  server.start();
  net::Client client = net::Client::connect_unix(cfg.unix_path);
  EXPECT_THROW((void)client.poll(424242), net::WireError);
  EXPECT_THROW((void)client.distill_result(424242), net::WireError);
  server.stop();
}

TEST(Server, UnknownScenarioSubmitsButFailsThroughPoll) {
  // Submission never blocks on the registry: bad keys are admitted and
  // fail asynchronously, matching Service::submit_distill's contract.
  serve::ServerConfig cfg;
  cfg.unix_path = unique_socket_path();
  cfg.service.workers = 1;
  serve::Server server(cfg);
  server.start();
  net::Client client = net::Client::connect_unix(cfg.unix_path);
  const auto job = client.submit_distill("no-such-scenario", {});
  ASSERT_TRUE(job.has_value());
  net::JobStatusReply status;
  do {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    status = client.poll(*job);
  } while (!serve::is_terminal(static_cast<serve::JobStatus>(status.status)));
  EXPECT_EQ(static_cast<serve::JobStatus>(status.status),
            serve::JobStatus::kFailed);
  EXPECT_FALSE(status.error.empty());
  server.stop();
}

TEST(Server, SubmitPastJobLimitsIsAnErrorReply) {
  // The cap is admitted (this job then fails on its unknown key, as any
  // would); 0 and cap + 1 never become jobs and the connection keeps
  // serving.
  serve::ServerConfig cfg;
  cfg.unix_path = unique_socket_path();
  cfg.service.workers = 1;
  serve::Server server(cfg);
  server.start();
  net::Client client = net::Client::connect_unix(cfg.unix_path);
  api::DistillOverrides d;
  d.episodes = serve::kMaxEpisodes;
  EXPECT_TRUE(client.submit_distill("no-such-scenario", d).has_value());
  d.episodes = serve::kMaxEpisodes + 1;
  try {
    (void)client.submit_distill("no-such-scenario", d);
    ADD_FAILURE() << "episodes = cap + 1 was admitted";
  } catch (const net::WireError& e) {
    EXPECT_NE(std::string(e.what()).find("job limits: episodes"),
              std::string::npos)
        << e.what();
  }
  d.episodes = 0;
  EXPECT_THROW((void)client.submit_distill("no-such-scenario", d),
               net::WireError);
  api::InterpretOverrides i;
  i.steps = serve::kMaxInterpretSteps;
  EXPECT_TRUE(client.submit_interpret("no-such-scenario", i).has_value());
  i.steps = serve::kMaxInterpretSteps + 1;
  EXPECT_THROW((void)client.submit_interpret("no-such-scenario", i),
               net::WireError);
  const auto stats = server.stats();
  EXPECT_EQ(stats.jobs_admitted, 2u);
  EXPECT_EQ(stats.error_replies, 3u);
  EXPECT_EQ(server.service().jobs().size(), 2u);
  server.stop();
}

TEST(Server, CleanShutdownWithInflightJobs) {
  auto gate = std::make_shared<Gate>();
  api::ScenarioRegistry registry;
  registry.add(std::make_unique<GatedScenario>(gate));

  serve::ServerConfig cfg;
  cfg.unix_path = unique_socket_path();
  cfg.service.workers = 1;
  cfg.service.registry = &registry;
  {
    serve::Server server(cfg);
    server.add_tree("t", tree::FlatTree::compile(make_test_tree()));
    server.start();
    net::Client client = net::Client::connect_unix(cfg.unix_path);
    const auto job = client.submit_distill("gated", {});
    ASSERT_TRUE(job.has_value());
    // Stop the network plane while the job is parked at the gate; then
    // let it finish so the Service destructor can drain.
    server.stop();
    gate->release();
    // Destructor runs here: must complete without hanging or crashing.
  }
  SUCCEED();
}

TEST(Server, StopIsIdempotentAndRestartable) {
  serve::ServerConfig cfg;
  cfg.unix_path = unique_socket_path();
  cfg.service.workers = 1;
  serve::Server server(cfg);
  server.add_tree("t", tree::FlatTree::compile(make_test_tree()));
  server.start();
  server.stop();
  server.stop();  // no-op
  // A fresh server can rebind the same path.
  serve::Server server2(cfg);
  server2.add_tree("t", tree::FlatTree::compile(make_test_tree()));
  server2.start();
  net::Client client = net::Client::connect_unix(cfg.unix_path);
  const std::uint64_t sid = client.open_session("t");
  EXPECT_NO_THROW((void)client.query(sid, 0, {0.3, 0.6, 0.9}));
  server2.stop();
}

// ---- robustness: seeded byte mutation ---------------------------------------

// Deterministic fuzz of the frame decoder: take a valid multi-message byte
// stream, flip a few seeded bytes, and feed the result in seeded chunk
// sizes. The decoder must either yield frames or throw WireError — never
// crash, loop, or read out of bounds (the CI UBSan leg runs this test with
// -fno-sanitize-recover=all, so any UB in the bounds checks is fatal).
// The stream carries one frame of every message type, and every decoded
// frame is pushed through its own type's payload decoder, which sees
// arbitrarily corrupted payloads here.
TEST(Wire, SeededByteMutationNeverBreaksFraming) {
  std::vector<std::uint8_t> stream;
  {
    auto append = [&stream](const net::Frame& f) {
      const auto bytes = net::encode_frame(f);
      stream.insert(stream.end(), bytes.begin(), bytes.end());
    };
    append(net::ErrorReply{"boom"}.encode());
    append(net::BusyReply{"full"}.encode());
    append(net::OpenSessionRequest{"abr"}.encode());
    append(net::SessionOpenedReply{7}.encode());
    append(net::QueryRequest{7, 3, {0.25, -1.0, 3.5}}.encode());
    append(net::DecisionReply{7, 3, 2.0}.encode());
    net::SubmitDistillRequest distill{"abr", {}};
    distill.overrides.episodes = 4;
    distill.overrides.resample = true;
    append(distill.encode());
    net::SubmitInterpretRequest interpret{"routing", {}};
    interpret.overrides.lambda1 = 0.5;
    interpret.overrides.steps = 20;
    append(interpret.encode());
    append(net::SubmittedReply{12}.encode());
    append(net::PollRequest{12}.encode());
    net::JobStatusReply status;
    status.job = 12;
    status.status = 1;
    status.rounds_total = 4;
    append(status.encode());
    append(net::ResultRequest{12}.encode());
    append(net::DistillResultReply{12, 96, 5, 0.75, "tree"}.encode());
    append(net::InterpretResultReply{13, 0.1, 0.2, 0.3, {1, 2}, {3, 4},
                                     {0.9, 0.8}}
               .encode());
    append(net::CancelJobRequest{12}.encode());
    append(net::CancelResultReply{12, true}.encode());
    append(net::ListTreesRequest{}.encode());
    append(net::TreeListReply{{"abr", "routing"}, {1, 2}}.encode());
  }
  constexpr std::size_t kFrames = 18;  // one per MsgType

  Rng rng(20260808);  // fixed seed: every run mutates identically
  for (int iter = 0; iter < 300; ++iter) {
    std::vector<std::uint8_t> bytes = stream;
    const std::size_t flips = 1 + rng.uniform_int(4);
    for (std::size_t f = 0; f < flips; ++f) {
      const std::size_t pos = rng.uniform_int(bytes.size());
      bytes[pos] = static_cast<std::uint8_t>(rng.uniform_int(256));
    }

    net::FrameDecoder decoder;
    std::size_t off = 0;
    std::size_t frames = 0;
    bool dead = false;  // unframeable: stream-fatal WireError seen
    while (off < bytes.size() && !dead) {
      const std::size_t chunk =
          std::min<std::size_t>(1 + rng.uniform_int(37), bytes.size() - off);
      decoder.feed(bytes.data() + off, chunk);
      off += chunk;
      try {
        net::Frame frame;
        while (decoder.next(frame)) {
          ++frames;
          try {
            // One arm per MsgType: the frame decoder rejects any other
            // type byte.
            switch (frame.type) {
              case net::MsgType::kError:
                (void)net::ErrorReply::decode(frame);
                break;
              case net::MsgType::kBusy:
                (void)net::BusyReply::decode(frame);
                break;
              case net::MsgType::kOpenSession:
                (void)net::OpenSessionRequest::decode(frame);
                break;
              case net::MsgType::kSessionOpened:
                (void)net::SessionOpenedReply::decode(frame);
                break;
              case net::MsgType::kQuery:
                (void)net::QueryRequest::decode(frame);
                break;
              case net::MsgType::kDecision:
                (void)net::DecisionReply::decode(frame);
                break;
              case net::MsgType::kSubmitDistill:
                (void)net::SubmitDistillRequest::decode(frame);
                break;
              case net::MsgType::kSubmitInterpret:
                (void)net::SubmitInterpretRequest::decode(frame);
                break;
              case net::MsgType::kSubmitted:
                (void)net::SubmittedReply::decode(frame);
                break;
              case net::MsgType::kPoll:
                (void)net::PollRequest::decode(frame);
                break;
              case net::MsgType::kJobStatus:
                (void)net::JobStatusReply::decode(frame);
                break;
              case net::MsgType::kResult:
                (void)net::ResultRequest::decode(frame);
                break;
              case net::MsgType::kDistillResult:
                (void)net::DistillResultReply::decode(frame);
                break;
              case net::MsgType::kInterpretResult:
                (void)net::InterpretResultReply::decode(frame);
                break;
              case net::MsgType::kCancelJob:
                (void)net::CancelJobRequest::decode(frame);
                break;
              case net::MsgType::kCancelResult:
                (void)net::CancelResultReply::decode(frame);
                break;
              case net::MsgType::kListTrees:
                (void)net::ListTreesRequest::decode(frame);
                break;
              case net::MsgType::kTreeList:
                (void)net::TreeListReply::decode(frame);
                break;
            }
          } catch (const net::WireError&) {
            // Corrupted payload of a well-framed message: recoverable.
          }
        }
      } catch (const net::WireError&) {
        dead = true;  // bad frame header: the stream cannot re-sync
      }
    }
    // An unmutated stream carries kFrames frames; a mutated one may frame
    // fewer (or die), but can never conjure more from the same bytes.
    EXPECT_LE(frames, kFrames) << "iteration " << iter;
  }
}

// ---- stats: cross-thread snapshot contract ----------------------------------

// Regression for the concurrency audit: Server::stats() must be callable
// from any thread while the loop thread is serving traffic (every counter
// is independently atomic; snapshots are monotonic, never torn). Hammer
// stats() from two reader threads during live query traffic and check
// monotonicity per counter, then exact final totals.
TEST(Server, StatsSnapshotsAreMonotonicUnderConcurrentReads) {
  const tree::DecisionTree dtree = make_test_tree();
  const tree::FlatTree flat = tree::FlatTree::compile(dtree);

  serve::ServerConfig cfg;
  cfg.unix_path = unique_socket_path();
  cfg.service.workers = 1;
  serve::Server server(cfg);
  server.add_tree("t", tree::FlatTree::compile(dtree));
  server.start();

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> regressions{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      serve::Server::Stats last;
      while (!done.load(std::memory_order_acquire)) {
        const serve::Server::Stats s = server.stats();
        if (s.connections_accepted < last.connections_accepted ||
            s.sessions_opened < last.sessions_opened ||
            s.decisions_served < last.decisions_served ||
            s.error_replies < last.error_replies) {
          ++regressions;
        }
        last = s;
      }
    });
  }

  constexpr std::size_t kQueries = 400;
  net::Client client = net::Client::connect_unix(cfg.unix_path);
  const std::uint64_t sid = client.open_session("t");
  const auto queries = random_features(kQueries, 97);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const double served = client.query(sid, i, queries[i]);
    ASSERT_TRUE(bit_equal(served, flat.predict(queries[i])));
  }
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  EXPECT_EQ(regressions.load(), 0u);
  const serve::Server::Stats s = server.stats();
  EXPECT_EQ(s.decisions_served, kQueries);
  EXPECT_EQ(s.sessions_opened, 1u);
  EXPECT_EQ(s.connections_accepted, 1u);
  server.stop();
}

// ---- event loop: timers and posted tasks ------------------------------------

TEST(EventLoop, OneShotAndPeriodicTimersFireOnSchedule) {
  net::EventLoop loop;
  std::atomic<int> one_shot{0};
  std::atomic<int> periodic{0};
  net::EventLoop::TimerId periodic_id = 0;
  loop.add_timer(std::chrono::milliseconds(5), std::chrono::nanoseconds(0),
                 [&] { ++one_shot; });
  periodic_id = loop.add_timer(
      std::chrono::milliseconds(5), std::chrono::milliseconds(10), [&] {
        // A periodic callback may cancel itself mid-invocation.
        if (++periodic == 3) loop.cancel_timer(periodic_id);
      });
  loop.add_timer(std::chrono::milliseconds(300), std::chrono::nanoseconds(0),
                 [&] { loop.stop(); });
  std::thread runner([&] { loop.run(); });
  runner.join();
  EXPECT_EQ(one_shot.load(), 1);
  EXPECT_EQ(periodic.load(), 3);
}

TEST(EventLoop, CancelledTimerNeverFires) {
  net::EventLoop loop;
  std::atomic<int> fired{0};
  const auto id = loop.add_timer(std::chrono::milliseconds(10),
                                 std::chrono::nanoseconds(0), [&] { ++fired; });
  loop.cancel_timer(id);
  loop.cancel_timer(id);  // idempotent
  loop.add_timer(std::chrono::milliseconds(60), std::chrono::nanoseconds(0),
                 [&] { loop.stop(); });
  std::thread runner([&] { loop.run(); });
  runner.join();
  EXPECT_EQ(fired.load(), 0);
}

TEST(EventLoop, PostedTasksRunAndStopIsPrompt) {
  net::EventLoop loop;
  std::thread runner([&] { loop.run(); });
  std::atomic<int> ran{0};
  for (int i = 0; i < 16; ++i) loop.post([&] { ++ran; });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (ran.load() < 16 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(ran.load(), 16);
  const auto t0 = std::chrono::steady_clock::now();
  loop.stop();
  runner.join();
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(2));
}

// ---- server: reaping, graceful stop -----------------------------------------

// Acceptance criterion: a client that connects and then goes silent is
// reaped within the idle timeout while a live client keeps being served.
TEST(Server, WedgedClientIsReapedWithinIdleTimeout) {
  serve::ServerConfig cfg;
  cfg.unix_path = unique_socket_path();
  cfg.service.workers = 1;
  cfg.idle_timeout_ms = 150;
  cfg.housekeeping_interval_ms = 10;
  serve::Server server(cfg);
  server.add_tree("t", tree::FlatTree::compile(make_test_tree()));
  server.start();

  net::Client wedged = net::Client::connect_unix(cfg.unix_path);
  net::Client active = net::Client::connect_unix(cfg.unix_path);
  const std::uint64_t sid = active.open_session("t");

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  std::uint64_t i = 0;
  while (server.stats().connections_reaped == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    // Live traffic keeps this connection's idle clock fresh.
    (void)active.query(sid, i++, {0.1, 0.2, 0.3});
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(server.stats().connections_reaped, 1u);
  // The wedged side observes the reap as a clean close...
  EXPECT_THROW((void)wedged.read_frame(), std::runtime_error);
  // ...and the live connection is untouched.
  EXPECT_NO_THROW((void)active.query(sid, i, {0.4, 0.5, 0.6}));
  server.stop();
}

// Slow-loris on the read side: the peer keeps the connection open but
// never drains its replies, so the kernel buffer fills and the server's
// outbuf tail cannot flush. write_stall_timeout_ms reaps it.
TEST(Server, WriteStalledConnectionIsReaped) {
  serve::ServerConfig cfg;
  cfg.unix_path = unique_socket_path();
  cfg.service.workers = 1;
  cfg.write_stall_timeout_ms = 50;
  cfg.housekeeping_interval_ms = 10;
  serve::Server server(cfg);
  server.add_tree("t", tree::FlatTree::compile(make_test_tree()));
  server.start();

  net::Client loris = net::Client::connect_unix(cfg.unix_path);
  const std::uint64_t sid = loris.open_session("t");
  // ~29 bytes of reply per query: 40k queries ≈ 1.1 MB of replies, far
  // past any kernel socket buffer, well under the 4 MB outbuf cap.
  const std::vector<double> q = {0.1, 0.2, 0.3};
  try {
    for (std::uint64_t i = 0; i < 40000; ++i) {
      loris.send_frame(net::QueryRequest{sid, i, q}.encode());
    }
  } catch (const std::runtime_error&) {
    // The reaper may fire while the flood is still in flight; the EPIPE
    // is the reap observed from this side.
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server.stats().connections_reaped == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(server.stats().connections_reaped, 1u);
  EXPECT_EQ(server.stats().connections_dropped, 0u);  // reaped, not overflowed
  server.stop();
}

// Acceptance criterion: stop() returns within the configured bound even
// when a peer can never be flushed (it stops reading entirely).
TEST(Server, GracefulStopIsBoundedWithUnflushableClient) {
  serve::ServerConfig cfg;
  cfg.unix_path = unique_socket_path();
  cfg.service.workers = 1;
  cfg.stop_timeout_ms = 250;
  serve::Server server(cfg);
  server.add_tree("t", tree::FlatTree::compile(make_test_tree()));
  server.start();

  net::Client loris = net::Client::connect_unix(cfg.unix_path);
  const std::uint64_t sid = loris.open_session("t");
  const std::vector<double> q = {0.1, 0.2, 0.3};
  for (std::uint64_t i = 0; i < 40000; ++i) {
    loris.send_frame(net::QueryRequest{sid, i, q}.encode());
  }
  // Wait until the server has actually handled the backlog so its outbuf
  // holds an unflushable tail when the drain begins.
  const auto handled =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server.stats().decisions_served < 40000 &&
         std::chrono::steady_clock::now() < handled) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const auto t0 = std::chrono::steady_clock::now();
  server.stop();
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(5));
}

// ---- server: cancellation and auto-deploy over the wire ---------------------

TEST(Server, CancelJobOverTheWire) {
  auto gate = std::make_shared<Gate>();
  api::ScenarioRegistry registry;
  registry.add(std::make_unique<GatedScenario>(gate));

  serve::ServerConfig cfg;
  cfg.unix_path = unique_socket_path();
  cfg.service.workers = 1;
  cfg.service.registry = &registry;
  serve::Server server(cfg);
  server.start();

  net::Client client = net::Client::connect_unix(cfg.unix_path);
  EXPECT_THROW((void)client.cancel_job(424242), net::WireError);

  const auto job = client.submit_distill("gated", {});
  ASSERT_TRUE(job.has_value());
  EXPECT_TRUE(client.cancel_job(*job));  // reached a live job
  gate->release();
  net::JobStatusReply status;
  do {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    status = client.poll(*job);
  } while (!serve::is_terminal(static_cast<serve::JobStatus>(status.status)));
  EXPECT_EQ(static_cast<serve::JobStatus>(status.status),
            serve::JobStatus::kCancelled);
  // A second cancel finds the job already terminal.
  EXPECT_FALSE(client.cancel_job(*job));
  server.stop();
}

TEST(Server, AutoDeployPublishesDistilledTreeToQueryPlane) {
  auto gate = std::make_shared<Gate>();
  gate->release();  // distillation runs ungated here
  api::ScenarioRegistry registry;
  registry.add(std::make_unique<GatedScenario>(gate));

  serve::ServerConfig cfg;
  cfg.unix_path = unique_socket_path();
  cfg.service.workers = 1;
  cfg.service.registry = &registry;
  cfg.auto_deploy_distilled = true;
  serve::Server server(cfg);
  server.start();
  EXPECT_FALSE(server.has_tree("gated"));

  net::Client client = net::Client::connect_unix(cfg.unix_path);
  const auto job = client.submit_distill("gated", {});
  ASSERT_TRUE(job.has_value());
  net::JobStatusReply status;
  do {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    status = client.poll(*job);
  } while (!serve::is_terminal(static_cast<serve::JobStatus>(status.status)));
  ASSERT_EQ(static_cast<serve::JobStatus>(status.status),
            serve::JobStatus::kDone)
      << status.error;

  // Done implies deployed: the worker hot-swapped the finished tree into
  // the query plane under the scenario key before the job read kDone —
  // no caller-side add_tree, no waiting.
  ASSERT_TRUE(server.has_tree("gated"));
  EXPECT_EQ(server.stats().trees_auto_deployed, 1u);
  const auto listed = client.list_trees();
  ASSERT_EQ(listed.names.size(), 1u);
  EXPECT_EQ(listed.names[0], "gated");
  EXPECT_EQ(listed.versions[0], 0u);  // no store: not store-backed

  // Served decisions match a FlatTree compiled from the wire-returned
  // serialization, bitwise.
  const auto result = client.distill_result(*job);
  const tree::FlatTree flat =
      tree::FlatTree::compile(tree::deserialize(result.tree_text));
  const std::uint64_t sid = client.open_session("gated");
  Rng rng(404);
  for (std::uint64_t i = 0; i < 50; ++i) {
    const std::vector<double> x = {rng.uniform()};
    EXPECT_TRUE(bit_equal(client.query(sid, i, x), flat.predict(x)));
  }
  server.stop();
}

// ~Server while a distill job is mid-run: the Service drains the job
// before the members its deploy hook touches (store, trees, stats) die,
// so the hook publishes durably during teardown instead of writing into
// freed memory (the ASan and TSan legs run this).
TEST(Server, DestroyedMidJobDrainsBeforeDeployStateDies) {
  auto gate = std::make_shared<Gate>();
  api::ScenarioRegistry registry;
  registry.add(std::make_unique<GatedScenario>(gate));

  serve::ServerConfig cfg;
  cfg.unix_path = unique_socket_path();
  cfg.store_dir = cfg.unix_path + ".store";
  cfg.service.workers = 1;
  cfg.service.registry = &registry;
  cfg.auto_deploy_distilled = true;
  auto server = std::make_unique<serve::Server>(cfg);
  server->start();
  const serve::JobHandle job = server->service().submit_distill("gated");
  while (job.status() == serve::JobStatus::kQueued) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(job.status(), serve::JobStatus::kRunning);  // parked on the gate

  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    gate->release();
  });
  server.reset();  // blocks until the gated job has finished and deployed
  releaser.join();

  EXPECT_EQ(job.status(), serve::JobStatus::kDone);
  store::SnapshotStore reopened({.dir = cfg.store_dir});
  EXPECT_EQ(reopened.latest_version(store::ArtifactKind::kTree, "gated"), 1u);
  std::filesystem::remove_all(cfg.store_dir);
}

// Two same-key distill jobs finishing together on two workers: the query
// plane swaps their trees in the order the store versioned them, so the
// served tree is always the store's latest — never an older job's tree
// landing on top of a newer one.
TEST(Server, ConcurrentSameKeyDeploysServeTheStoresLatestVersion) {
  auto gate = std::make_shared<Gate>();
  api::ScenarioRegistry registry;
  registry.add(std::make_unique<GatedScenario>(gate));

  serve::ServerConfig cfg;
  cfg.unix_path = unique_socket_path();
  cfg.store_dir = cfg.unix_path + ".store";
  cfg.service.workers = 2;
  cfg.service.registry = &registry;
  cfg.auto_deploy_distilled = true;
  serve::Server server(cfg);
  server.start();
  net::Client client = net::Client::connect_unix(cfg.unix_path);
  // Different collection budgets, so the two jobs' trees can differ.
  api::DistillOverrides shorter;
  shorter.max_steps = 3;

  Rng rng(515);
  for (std::uint64_t round = 1; round <= 8; ++round) {
    gate->close();
    const serve::JobHandle a = server.service().submit_distill("gated");
    const serve::JobHandle b =
        server.service().submit_distill("gated", shorter);
    while (a.status() == serve::JobStatus::kQueued ||
           b.status() == serve::JobStatus::kQueued) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    gate->release();  // both parked on the gate: let them finish together
    a.wait();
    b.wait();
    ASSERT_EQ(a.status(), serve::JobStatus::kDone);
    ASSERT_EQ(b.status(), serve::JobStatus::kDone);

    const std::uint64_t latest = server.snapshot_store()->latest_version(
        store::ArtifactKind::kTree, "gated");
    ASSERT_EQ(latest, 2 * round);
    const auto listed = client.list_trees();
    ASSERT_EQ(listed.names.size(), 1u);
    EXPECT_EQ(listed.versions[0], latest);
    const tree::FlatTree stored = tree::FlatTree::compile(
        server.snapshot_store()->load_tree("gated"));
    const std::uint64_t sid = client.open_session("gated");
    for (std::uint64_t i = 0; i < 20; ++i) {
      const std::vector<double> x = {rng.uniform()};
      EXPECT_TRUE(bit_equal(client.query(sid, i, x), stored.predict(x)));
    }
  }
  EXPECT_EQ(server.stats().trees_auto_deployed, 16u);
  server.stop();
  std::filesystem::remove_all(cfg.store_dir);
}

// ---- client: timeouts, retry, reconnect -------------------------------------

TEST(Client, ReadTimeoutThrowsTimeoutError) {
  // A listener that accepts nothing: connects land in the backlog and no
  // reply ever comes.
  const std::string path = unique_socket_path();
  const int lfd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(lfd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  ASSERT_EQ(::bind(lfd, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(lfd, 4), 0);

  net::ClientConfig ccfg;
  ccfg.read_timeout_ms = 50;
  net::Client client = net::Client::connect_unix(path, ccfg);
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW((void)client.open_session("t"), net::TimeoutError);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_GE(elapsed, std::chrono::milliseconds(50));
  EXPECT_LT(elapsed, std::chrono::seconds(5));
  ::close(lfd);
  ::unlink(path.c_str());
}

TEST(Client, ConnectToMissingEndpointFailsAfterRetries) {
  net::ClientConfig ccfg;
  ccfg.max_retries = 2;
  ccfg.backoff_base_ms = 1;
  ccfg.backoff_max_ms = 4;
  EXPECT_THROW((void)net::Client::connect_unix("/tmp/metis_net_test_nowhere_" +
                                                   std::to_string(::getpid()) +
                                                   ".sock",
                                               ccfg),
               std::runtime_error);
}

TEST(Client, QueryRobustReconnectsAcrossServerRestart) {
  const tree::DecisionTree dtree = make_test_tree();
  const tree::FlatTree flat = tree::FlatTree::compile(dtree);
  serve::ServerConfig cfg;
  cfg.unix_path = unique_socket_path();
  cfg.service.workers = 1;

  net::ClientConfig ccfg;
  ccfg.read_timeout_ms = 2000;
  ccfg.max_retries = 8;
  ccfg.backoff_base_ms = 1;
  ccfg.backoff_max_ms = 8;
  ccfg.seed = 7;

  serve::Server first(cfg);
  first.add_tree("t", tree::FlatTree::compile(dtree));
  first.start();
  net::Client client = net::Client::connect_unix(cfg.unix_path, ccfg);
  const auto queries = random_features(4, 23);
  EXPECT_TRUE(bit_equal(client.query_robust("t", 0, queries[0]),
                        flat.predict(queries[0])));
  first.stop();

  // Same path, fresh server: the client's next robust query re-dials,
  // re-opens its cached session, and replays.
  serve::Server second(cfg);
  second.add_tree("t", tree::FlatTree::compile(dtree));
  second.start();
  for (std::uint64_t i = 1; i < queries.size(); ++i) {
    EXPECT_TRUE(bit_equal(client.query_robust("t", i, queries[i]),
                          flat.predict(queries[i])));
  }
  second.stop();
}

// ---- chaos: seeded fault injection at every syscall site --------------------

// Seed for the deterministic chaos schedule. Overridable so CI can sweep
// seeds without recompiling: METIS_CHAOS_SEED=n ctest -R Chaos ...
std::uint64_t chaos_seed() {
  if (const char* env = std::getenv("METIS_CHAOS_SEED")) {
    return std::strtoull(env, nullptr, 10);
  }
  return 20260808;
}

TEST(Chaos, QueryPlaneStaysBitwiseUnderSeededFaults) {
  const tree::DecisionTree dtree = make_test_tree();
  const tree::FlatTree flat = tree::FlatTree::compile(dtree);

  serve::ServerConfig cfg;
  cfg.unix_path = unique_socket_path();
  cfg.service.workers = 1;
  cfg.idle_timeout_ms = 5000;
  cfg.write_stall_timeout_ms = 5000;
  cfg.housekeeping_interval_ms = 20;
  serve::Server server(cfg);
  server.add_tree("t", tree::FlatTree::compile(dtree));
  server.start();

  util::FaultSpec spec;
  spec.seed = chaos_seed();
  spec.eintr = 0.05;
  spec.short_op = 0.05;
  spec.reset = 0.02;
  spec.delay = 0.01;
  spec.delay_us = 50;
  spec.max_faults = 300;  // budget: liveness once the chaos is spent
  util::FaultPlan plan(spec);
  net::io::set_fault_plan(&plan);

  net::ClientConfig ccfg;
  ccfg.connect_timeout_ms = 2000;
  ccfg.read_timeout_ms = 2000;
  ccfg.max_retries = 16;
  ccfg.backoff_base_ms = 1;
  ccfg.backoff_max_ms = 8;
  ccfg.seed = spec.seed;
  net::Client client = net::Client::connect_unix(cfg.unix_path, ccfg);

  const auto queries = random_features(200, 55);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    // Short reads/writes, EINTR, torn connections, injected delays — the
    // answer must still be the exact FlatTree decision, every time.
    EXPECT_TRUE(bit_equal(client.query_robust("t", i, queries[i]),
                          flat.predict(queries[i])))
        << "query " << i;
  }
  server.stop();
  net::io::set_fault_plan(nullptr);
  EXPECT_GT(plan.faults_injected(), 0u);
  EXPECT_GE(server.stats().decisions_served, queries.size());
}

TEST(Chaos, EIntrAtEverySyscallStillServes) {
  const tree::DecisionTree dtree = make_test_tree();
  const tree::FlatTree flat = tree::FlatTree::compile(dtree);

  serve::ServerConfig cfg;
  cfg.unix_path = unique_socket_path();
  cfg.service.workers = 1;
  serve::Server server(cfg);
  server.add_tree("t", tree::FlatTree::compile(dtree));
  server.start();

  // Every intercepted syscall fails with EINTR until the budget is spent:
  // any retry loop in net/ that mishandles EINTR hangs or errors here
  // (the EINTR-audit regression).
  util::FaultSpec spec;
  spec.seed = chaos_seed() + 1;
  spec.eintr = 1.0;
  spec.max_faults = 3000;
  util::FaultPlan plan(spec);
  net::io::set_fault_plan(&plan);

  net::Client client = net::Client::connect_unix(cfg.unix_path);
  const std::uint64_t sid = client.open_session("t");
  const auto queries = random_features(50, 91);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_TRUE(
        bit_equal(client.query(sid, i, queries[i]), flat.predict(queries[i])))
        << "query " << i;
  }
  server.stop();
  net::io::set_fault_plan(nullptr);
  EXPECT_GT(plan.faults_injected(), 0u);
  EXPECT_LE(plan.faults_injected(), spec.max_faults);
}

}  // namespace
}  // namespace metis
