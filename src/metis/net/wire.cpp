#include "metis/net/wire.h"

#include <cstring>

// metis-lint: begin-deterministic — the wire codec: encode(decode(x))
// must be byte-identical on every host and run (the protocol tests
// round-trip golden bytes), so the codec is a pure function of its
// inputs — no clocks, no addresses, no iteration over hashed containers.
namespace metis::net {

const char* to_string(MsgType type) {
  switch (type) {
    case MsgType::kError: return "error";
    case MsgType::kBusy: return "busy";
    case MsgType::kOpenSession: return "open_session";
    case MsgType::kSessionOpened: return "session_opened";
    case MsgType::kQuery: return "query";
    case MsgType::kDecision: return "decision";
    case MsgType::kSubmitDistill: return "submit_distill";
    case MsgType::kSubmitInterpret: return "submit_interpret";
    case MsgType::kSubmitted: return "submitted";
    case MsgType::kPoll: return "poll";
    case MsgType::kJobStatus: return "job_status";
    case MsgType::kResult: return "result";
    case MsgType::kDistillResult: return "distill_result";
    case MsgType::kInterpretResult: return "interpret_result";
    case MsgType::kCancelJob: return "cancel_job";
    case MsgType::kCancelResult: return "cancel_result";
    case MsgType::kListTrees: return "list_trees";
    case MsgType::kTreeList: return "tree_list";
  }
  return "unknown";
}

namespace {

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 24));
}

std::uint32_t get_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

// The last type value; anything above is not a MsgType.
constexpr std::uint8_t kMaxMsgType =
    static_cast<std::uint8_t>(MsgType::kTreeList);

}  // namespace

void encode_frame(const Frame& frame, std::vector<std::uint8_t>& out) {
  put_u32(out, static_cast<std::uint32_t>(1 + frame.payload.size()));
  out.push_back(static_cast<std::uint8_t>(frame.type));
  out.insert(out.end(), frame.payload.begin(), frame.payload.end());
}

std::vector<std::uint8_t> encode_frame(const Frame& frame) {
  std::vector<std::uint8_t> out;
  out.reserve(5 + frame.payload.size());
  encode_frame(frame, out);
  return out;
}

// metis-lint: begin-hot-path
void FrameDecoder::feed(const std::uint8_t* data, std::size_t n) {
  // Drop the already-consumed prefix before growing, so a long-lived
  // connection's buffer stays bounded by one in-flight frame + one read.
  if (consumed_ > 0 && (consumed_ == buf_.size() || consumed_ >= 4096)) {
    buf_.erase(buf_.begin(),
               buf_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  buf_.insert(buf_.end(), data, data + n);
}

bool FrameDecoder::next(Frame& frame) {
  const std::size_t avail = buf_.size() - consumed_;
  if (avail < 4) return false;
  const std::uint32_t len = get_u32(buf_.data() + consumed_);
  if (len < 1) throw WireError("zero-length frame");
  if (len > max_frame_bytes_) {
    throw WireError("frame of " + std::to_string(len) +
                    " bytes exceeds the " +
                    std::to_string(max_frame_bytes_) + "-byte limit");
  }
  if (avail < 4 + static_cast<std::size_t>(len)) return false;
  const std::uint8_t* p = buf_.data() + consumed_ + 4;
  if (p[0] > kMaxMsgType) {
    throw WireError("unknown message type " + std::to_string(p[0]));
  }
  frame.type = static_cast<MsgType>(p[0]);
  frame.payload.assign(p + 1, p + len);
  consumed_ += 4 + static_cast<std::size_t>(len);
  return true;
}
// metis-lint: end-hot-path

// ---- payload primitives -----------------------------------------------------

void PayloadWriter::u32(std::uint32_t v) { put_u32(buf_, v); }

void PayloadWriter::u64(std::uint64_t v) {
  u32(static_cast<std::uint32_t>(v));
  u32(static_cast<std::uint32_t>(v >> 32));
}

void PayloadWriter::f64(double v) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  u64(bits);
}

void PayloadWriter::str(const std::string& s) {
  u32(static_cast<std::uint32_t>(s.size()));
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void PayloadWriter::f64s(const std::vector<double>& v) {
  u32(static_cast<std::uint32_t>(v.size()));
  for (double d : v) f64(d);
}

void PayloadReader::need(std::size_t n) const {
  if (pos_ + n > data_.size()) throw WireError("truncated payload");
}

std::uint8_t PayloadReader::u8() {
  need(1);
  return data_[pos_++];
}

std::uint32_t PayloadReader::u32() {
  need(4);
  const std::uint32_t v = get_u32(data_.data() + pos_);
  pos_ += 4;
  return v;
}

std::uint64_t PayloadReader::u64() {
  const std::uint64_t lo = u32();
  const std::uint64_t hi = u32();
  return lo | (hi << 32);
}

double PayloadReader::f64() {
  const std::uint64_t bits = u64();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string PayloadReader::str() {
  const std::uint32_t n = u32();
  need(n);
  std::string s(reinterpret_cast<const char*>(data_.data() + pos_), n);
  pos_ += n;
  return s;
}

std::vector<double> PayloadReader::f64s() {
  const std::uint32_t n = count(8);
  std::vector<double> v;
  v.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) v.push_back(f64());
  return v;
}

std::uint32_t PayloadReader::count(std::size_t entry_bytes) {
  const std::uint32_t n = u32();
  need(static_cast<std::size_t>(n) * entry_bytes);
  return n;
}

void PayloadReader::expect_end() const {
  if (pos_ != data_.size()) throw WireError("trailing payload bytes");
}

// ---- messages ---------------------------------------------------------------

namespace {

PayloadReader reader_for(const Frame& frame, MsgType expected) {
  if (frame.type != expected) {
    throw WireError(std::string("expected ") + to_string(expected) +
                    " frame, got " + to_string(frame.type));
  }
  return PayloadReader(frame.payload);
}

// Sparse optional fields: u8 presence flag + value when present.
template <typename T, typename Put>
void put_opt(PayloadWriter& w, const std::optional<T>& v, Put&& put) {
  w.u8(v.has_value() ? 1 : 0);
  if (v.has_value()) put(*v);
}

template <typename T, typename Get>
std::optional<T> get_opt(PayloadReader& r, Get&& get) {
  const std::uint8_t present = r.u8();
  if (present > 1) throw WireError("bad optional-presence flag");
  if (present == 0) return std::nullopt;
  return get();
}

void put_distill_overrides(PayloadWriter& w, const api::DistillOverrides& o) {
  auto size = [&](std::size_t v) { w.u64(v); };
  put_opt(w, o.episodes, size);
  put_opt(w, o.max_steps, size);
  put_opt(w, o.dagger_iterations, size);
  put_opt(w, o.max_leaves, size);
  put_opt(w, o.resample, [&](bool v) { w.u8(v ? 1 : 0); });
  put_opt(w, o.seed, [&](std::uint64_t v) { w.u64(v); });
  put_opt(w, o.deadline_ms, [&](std::uint64_t v) { w.u64(v); });
}

api::DistillOverrides get_distill_overrides(PayloadReader& r) {
  api::DistillOverrides o;
  auto size = [&] { return static_cast<std::size_t>(r.u64()); };
  auto flag = [&] { return r.u8() != 0; };
  o.episodes = get_opt<std::size_t>(r, size);
  o.max_steps = get_opt<std::size_t>(r, size);
  o.dagger_iterations = get_opt<std::size_t>(r, size);
  o.max_leaves = get_opt<std::size_t>(r, size);
  o.resample = get_opt<bool>(r, flag);
  o.seed = get_opt<std::uint64_t>(r, [&] { return r.u64(); });
  o.deadline_ms = get_opt<std::uint64_t>(r, [&] { return r.u64(); });
  return o;
}

void put_interpret_overrides(PayloadWriter& w,
                             const api::InterpretOverrides& o) {
  put_opt(w, o.lambda1, [&](double v) { w.f64(v); });
  put_opt(w, o.lambda2, [&](double v) { w.f64(v); });
  put_opt(w, o.steps, [&](std::size_t v) { w.u64(v); });
  put_opt(w, o.lr, [&](double v) { w.f64(v); });
  put_opt(w, o.seed, [&](std::uint64_t v) { w.u64(v); });
  put_opt(w, o.deadline_ms, [&](std::uint64_t v) { w.u64(v); });
}

api::InterpretOverrides get_interpret_overrides(PayloadReader& r) {
  api::InterpretOverrides o;
  auto real = [&] { return r.f64(); };
  o.lambda1 = get_opt<double>(r, real);
  o.lambda2 = get_opt<double>(r, real);
  o.steps = get_opt<std::size_t>(r, [&] {
    return static_cast<std::size_t>(r.u64());
  });
  o.lr = get_opt<double>(r, real);
  o.seed = get_opt<std::uint64_t>(r, [&] { return r.u64(); });
  o.deadline_ms = get_opt<std::uint64_t>(r, [&] { return r.u64(); });
  return o;
}

}  // namespace

Frame ErrorReply::encode() const {
  PayloadWriter w;
  w.str(message);
  return {MsgType::kError, w.take()};
}

ErrorReply ErrorReply::decode(const Frame& frame) {
  PayloadReader r = reader_for(frame, MsgType::kError);
  ErrorReply m;
  m.message = r.str();
  r.expect_end();
  return m;
}

Frame BusyReply::encode() const {
  PayloadWriter w;
  w.str(reason);
  return {MsgType::kBusy, w.take()};
}

BusyReply BusyReply::decode(const Frame& frame) {
  PayloadReader r = reader_for(frame, MsgType::kBusy);
  BusyReply m;
  m.reason = r.str();
  r.expect_end();
  return m;
}

Frame OpenSessionRequest::encode() const {
  PayloadWriter w;
  w.str(tree);
  return {MsgType::kOpenSession, w.take()};
}

OpenSessionRequest OpenSessionRequest::decode(const Frame& frame) {
  PayloadReader r = reader_for(frame, MsgType::kOpenSession);
  OpenSessionRequest m;
  m.tree = r.str();
  r.expect_end();
  return m;
}

Frame SessionOpenedReply::encode() const {
  PayloadWriter w;
  w.u64(session);
  return {MsgType::kSessionOpened, w.take()};
}

SessionOpenedReply SessionOpenedReply::decode(const Frame& frame) {
  PayloadReader r = reader_for(frame, MsgType::kSessionOpened);
  SessionOpenedReply m;
  m.session = r.u64();
  r.expect_end();
  return m;
}

Frame QueryRequest::encode() const {
  PayloadWriter w;
  w.u64(session);
  w.u64(seq);
  w.f64s(features);
  return {MsgType::kQuery, w.take()};
}

QueryRequest QueryRequest::decode(const Frame& frame) {
  PayloadReader r = reader_for(frame, MsgType::kQuery);
  QueryRequest m;
  m.session = r.u64();
  m.seq = r.u64();
  m.features = r.f64s();
  r.expect_end();
  return m;
}

Frame DecisionReply::encode() const {
  PayloadWriter w;
  w.u64(session);
  w.u64(seq);
  w.f64(decision);
  return {MsgType::kDecision, w.take()};
}

DecisionReply DecisionReply::decode(const Frame& frame) {
  PayloadReader r = reader_for(frame, MsgType::kDecision);
  DecisionReply m;
  m.session = r.u64();
  m.seq = r.u64();
  m.decision = r.f64();
  r.expect_end();
  return m;
}

Frame SubmitDistillRequest::encode() const {
  PayloadWriter w;
  w.str(scenario);
  put_distill_overrides(w, overrides);
  return {MsgType::kSubmitDistill, w.take()};
}

SubmitDistillRequest SubmitDistillRequest::decode(const Frame& frame) {
  PayloadReader r = reader_for(frame, MsgType::kSubmitDistill);
  SubmitDistillRequest m;
  m.scenario = r.str();
  m.overrides = get_distill_overrides(r);
  r.expect_end();
  return m;
}

Frame SubmitInterpretRequest::encode() const {
  PayloadWriter w;
  w.str(scenario);
  put_interpret_overrides(w, overrides);
  return {MsgType::kSubmitInterpret, w.take()};
}

SubmitInterpretRequest SubmitInterpretRequest::decode(const Frame& frame) {
  PayloadReader r = reader_for(frame, MsgType::kSubmitInterpret);
  SubmitInterpretRequest m;
  m.scenario = r.str();
  m.overrides = get_interpret_overrides(r);
  r.expect_end();
  return m;
}

Frame SubmittedReply::encode() const {
  PayloadWriter w;
  w.u64(job);
  return {MsgType::kSubmitted, w.take()};
}

SubmittedReply SubmittedReply::decode(const Frame& frame) {
  PayloadReader r = reader_for(frame, MsgType::kSubmitted);
  SubmittedReply m;
  m.job = r.u64();
  r.expect_end();
  return m;
}

Frame PollRequest::encode() const {
  PayloadWriter w;
  w.u64(job);
  return {MsgType::kPoll, w.take()};
}

PollRequest PollRequest::decode(const Frame& frame) {
  PayloadReader r = reader_for(frame, MsgType::kPoll);
  PollRequest m;
  m.job = r.u64();
  r.expect_end();
  return m;
}

Frame JobStatusReply::encode() const {
  PayloadWriter w;
  w.u64(job);
  w.u8(status);
  w.u64(rounds_done);
  w.u64(rounds_total);
  w.u64(episodes_done);
  w.u64(episodes_total);
  w.u64(steps_done);
  w.u64(steps_total);
  w.str(error);
  return {MsgType::kJobStatus, w.take()};
}

JobStatusReply JobStatusReply::decode(const Frame& frame) {
  PayloadReader r = reader_for(frame, MsgType::kJobStatus);
  JobStatusReply m;
  m.job = r.u64();
  m.status = r.u8();
  m.rounds_done = r.u64();
  m.rounds_total = r.u64();
  m.episodes_done = r.u64();
  m.episodes_total = r.u64();
  m.steps_done = r.u64();
  m.steps_total = r.u64();
  m.error = r.str();
  r.expect_end();
  return m;
}

Frame ResultRequest::encode() const {
  PayloadWriter w;
  w.u64(job);
  return {MsgType::kResult, w.take()};
}

ResultRequest ResultRequest::decode(const Frame& frame) {
  PayloadReader r = reader_for(frame, MsgType::kResult);
  ResultRequest m;
  m.job = r.u64();
  r.expect_end();
  return m;
}

Frame DistillResultReply::encode() const {
  PayloadWriter w;
  w.u64(job);
  w.u64(samples);
  w.u32(leaves);
  w.f64(fidelity);
  w.str(tree_text);
  return {MsgType::kDistillResult, w.take()};
}

DistillResultReply DistillResultReply::decode(const Frame& frame) {
  PayloadReader r = reader_for(frame, MsgType::kDistillResult);
  DistillResultReply m;
  m.job = r.u64();
  m.samples = r.u64();
  m.leaves = r.u32();
  m.fidelity = r.f64();
  m.tree_text = r.str();
  r.expect_end();
  return m;
}

Frame CancelJobRequest::encode() const {
  PayloadWriter w;
  w.u64(job);
  return {MsgType::kCancelJob, w.take()};
}

CancelJobRequest CancelJobRequest::decode(const Frame& frame) {
  PayloadReader r = reader_for(frame, MsgType::kCancelJob);
  CancelJobRequest m;
  m.job = r.u64();
  r.expect_end();
  return m;
}

Frame CancelResultReply::encode() const {
  PayloadWriter w;
  w.u64(job);
  w.u8(delivered ? 1 : 0);
  return {MsgType::kCancelResult, w.take()};
}

CancelResultReply CancelResultReply::decode(const Frame& frame) {
  PayloadReader r = reader_for(frame, MsgType::kCancelResult);
  CancelResultReply m;
  m.job = r.u64();
  m.delivered = r.u8() != 0;
  r.expect_end();
  return m;
}

Frame ListTreesRequest::encode() const { return {MsgType::kListTrees, {}}; }

ListTreesRequest ListTreesRequest::decode(const Frame& frame) {
  PayloadReader r = reader_for(frame, MsgType::kListTrees);
  r.expect_end();
  return {};
}

Frame TreeListReply::encode() const {
  if (names.size() != versions.size()) {
    throw WireError("ragged tree-list columns");
  }
  PayloadWriter w;
  w.u32(static_cast<std::uint32_t>(names.size()));
  for (std::size_t i = 0; i < names.size(); ++i) {
    w.str(names[i]);
    w.u64(versions[i]);
  }
  return {MsgType::kTreeList, w.take()};
}

TreeListReply TreeListReply::decode(const Frame& frame) {
  PayloadReader r = reader_for(frame, MsgType::kTreeList);
  TreeListReply m;
  const std::uint32_t n = r.count(12);  // u32 name length + u64 version
  m.names.reserve(n);
  m.versions.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    m.names.push_back(r.str());
    m.versions.push_back(r.u64());
  }
  r.expect_end();
  return m;
}

Frame InterpretResultReply::encode() const {
  if (edges.size() != vertices.size() || edges.size() != masks.size()) {
    throw WireError("ragged interpret-result columns");
  }
  PayloadWriter w;
  w.u64(job);
  w.f64(divergence);
  w.f64(mask_l1);
  w.f64(entropy);
  w.u32(static_cast<std::uint32_t>(edges.size()));
  for (std::size_t i = 0; i < edges.size(); ++i) {
    w.u32(edges[i]);
    w.u32(vertices[i]);
    w.f64(masks[i]);
  }
  return {MsgType::kInterpretResult, w.take()};
}

InterpretResultReply InterpretResultReply::decode(const Frame& frame) {
  PayloadReader r = reader_for(frame, MsgType::kInterpretResult);
  InterpretResultReply m;
  m.job = r.u64();
  m.divergence = r.f64();
  m.mask_l1 = r.f64();
  m.entropy = r.f64();
  const std::uint32_t n = r.count(16);  // u32 edge + u32 vertex + f64 mask
  m.edges.reserve(n);
  m.vertices.reserve(n);
  m.masks.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    m.edges.push_back(r.u32());
    m.vertices.push_back(r.u32());
    m.masks.push_back(r.f64());
  }
  r.expect_end();
  return m;
}

}  // namespace metis::net
// metis-lint: end-deterministic
