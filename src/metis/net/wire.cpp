#include "metis/net/wire.h"

#include <cstring>
#include <optional>
#include <tuple>
#include <type_traits>

// metis-lint: begin-deterministic — the wire codec: encode(decode(x))
// must be byte-identical on every host and run (net_test's
// Wire.EveryMessageEncodesToPinnedBytes pins every message's bytes), so
// the codec is a pure function of its inputs — no clocks, no addresses,
// no iteration over hashed containers.
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

// The field codec: one put/get overload per field type (size_t is
// uint64_t here). get() fills a default-constructed field. Each template
// finds the overloads it calls by ordinary lookup, so those are declared
// first.

void put(PayloadWriter& w, bool v) { w.u8(v ? 1 : 0); }
void put(PayloadWriter& w, std::uint8_t v) { w.u8(v); }
void put(PayloadWriter& w, std::uint32_t v) { w.u32(v); }
void put(PayloadWriter& w, std::uint64_t v) { w.u64(v); }
void put(PayloadWriter& w, double v) { w.f64(v); }
void put(PayloadWriter& w, const std::string& v) { w.str(v); }

void get(PayloadReader& r, bool& v) { v = r.u8() != 0; }
void get(PayloadReader& r, std::uint8_t& v) { v = r.u8(); }
void get(PayloadReader& r, std::uint32_t& v) { v = r.u32(); }
void get(PayloadReader& r, std::uint64_t& v) { v = r.u64(); }
void get(PayloadReader& r, double& v) { v = r.f64(); }
void get(PayloadReader& r, std::string& v) { v = r.str(); }

// The fewest bytes a field of type T takes on the wire: what a row count
// is checked against before anything is reserved for it.
template <typename T>
constexpr std::size_t kMinBytes =
    std::is_same_v<T, std::string> ? 4 : sizeof(T);

template <typename T>
void put(PayloadWriter& w, const std::optional<T>& v) {
  w.u8(v.has_value() ? 1 : 0);
  if (v.has_value()) put(w, *v);
}

template <typename T>
void get(PayloadReader& r, std::optional<T>& v) {
  const std::uint8_t present = r.u8();
  if (present > 1) throw WireError("bad optional-presence flag");
  if (present == 1) get(r, v.emplace());
}

template <typename... Cols>
void put(PayloadWriter& w, const Rows<Cols...>& table) {
  const std::size_t n = std::get<0>(table.cols).size();
  std::apply(
      [&w, n](const auto&... col) {
        if (((col.size() != n) || ...)) throw WireError("ragged row columns");
        w.u32(static_cast<std::uint32_t>(n));
        for (std::size_t i = 0; i < n; ++i) (put(w, col[i]), ...);
      },
      table.cols);
}

template <typename... Cols>
void get(PayloadReader& r, Rows<Cols...> table) {
  const std::uint32_t n = r.count((kMinBytes<typename Cols::value_type> + ...));
  std::apply(
      [&r, n](auto&... col) {
        (col.reserve(n), ...);
        for (std::uint32_t i = 0; i < n; ++i) (get(r, col.emplace_back()), ...);
      },
      table.cols);
}

template <typename T>
void put(PayloadWriter& w, const std::vector<T>& v) {
  put(w, rows(v));
}

template <typename T>
void get(PayloadReader& r, std::vector<T>& v) {
  get(r, rows(v));
}

void put(PayloadWriter& w, const api::DistillOverrides& o);
void get(PayloadReader& r, api::DistillOverrides& o);
void put(PayloadWriter& w, const api::InterpretOverrides& o);
void get(PayloadReader& r, api::InterpretOverrides& o);

// Walks a field list in order; the fold over `,` sequences the calls.
template <typename Fields>
void put_fields(PayloadWriter& w, const Fields& fields) {
  std::apply([&w](const auto&... f) { (put(w, f), ...); }, fields);
}

template <typename Fields>
void get_fields(PayloadReader& r, Fields fields) {
  std::apply([&r](auto&... f) { (get(r, f), ...); }, fields);
}

auto distill_fields(auto& o) {
  return std::tie(o.episodes, o.max_steps, o.dagger_iterations,
                  o.max_leaves, o.resample, o.seed, o.deadline_ms);
}

auto interpret_fields(auto& o) {
  return std::tie(o.lambda1, o.lambda2, o.steps, o.lr, o.seed,
                  o.deadline_ms);
}

void put(PayloadWriter& w, const api::DistillOverrides& o) {
  put_fields(w, distill_fields(o));
}
void get(PayloadReader& r, api::DistillOverrides& o) {
  get_fields(r, distill_fields(o));
}
void put(PayloadWriter& w, const api::InterpretOverrides& o) {
  put_fields(w, interpret_fields(o));
}
void get(PayloadReader& r, api::InterpretOverrides& o) {
  get_fields(r, interpret_fields(o));
}

template <typename M>
Frame encode_message(const M& m) {
  PayloadWriter w;
  put_fields(w, M::fields(m));
  return {M::kType, w.take()};
}

template <typename M>
M decode_message(const Frame& frame) {
  if (frame.type != M::kType) {
    throw WireError(std::string("expected ") + to_string(M::kType) +
                    " frame, got " + to_string(frame.type));
  }
  PayloadReader r(frame.payload);
  M m;
  get_fields(r, M::fields(m));
  r.expect_end();
  return m;
}

}  // namespace

// The members every caller uses (and metis-lint check 1 looks for), each
// forwarding to the codec.
Frame ErrorReply::encode() const { return encode_message(*this); }
ErrorReply ErrorReply::decode(const Frame& frame) {
  return decode_message<ErrorReply>(frame);
}
Frame BusyReply::encode() const { return encode_message(*this); }
BusyReply BusyReply::decode(const Frame& frame) {
  return decode_message<BusyReply>(frame);
}
Frame OpenSessionRequest::encode() const { return encode_message(*this); }
OpenSessionRequest OpenSessionRequest::decode(const Frame& frame) {
  return decode_message<OpenSessionRequest>(frame);
}
Frame SessionOpenedReply::encode() const { return encode_message(*this); }
SessionOpenedReply SessionOpenedReply::decode(const Frame& frame) {
  return decode_message<SessionOpenedReply>(frame);
}
Frame QueryRequest::encode() const { return encode_message(*this); }
QueryRequest QueryRequest::decode(const Frame& frame) {
  return decode_message<QueryRequest>(frame);
}
Frame DecisionReply::encode() const { return encode_message(*this); }
DecisionReply DecisionReply::decode(const Frame& frame) {
  return decode_message<DecisionReply>(frame);
}
Frame SubmitDistillRequest::encode() const { return encode_message(*this); }
SubmitDistillRequest SubmitDistillRequest::decode(const Frame& frame) {
  return decode_message<SubmitDistillRequest>(frame);
}
Frame SubmitInterpretRequest::encode() const { return encode_message(*this); }
SubmitInterpretRequest SubmitInterpretRequest::decode(const Frame& frame) {
  return decode_message<SubmitInterpretRequest>(frame);
}
Frame SubmittedReply::encode() const { return encode_message(*this); }
SubmittedReply SubmittedReply::decode(const Frame& frame) {
  return decode_message<SubmittedReply>(frame);
}
Frame PollRequest::encode() const { return encode_message(*this); }
PollRequest PollRequest::decode(const Frame& frame) {
  return decode_message<PollRequest>(frame);
}
Frame JobStatusReply::encode() const { return encode_message(*this); }
JobStatusReply JobStatusReply::decode(const Frame& frame) {
  return decode_message<JobStatusReply>(frame);
}
Frame ResultRequest::encode() const { return encode_message(*this); }
ResultRequest ResultRequest::decode(const Frame& frame) {
  return decode_message<ResultRequest>(frame);
}
Frame DistillResultReply::encode() const { return encode_message(*this); }
DistillResultReply DistillResultReply::decode(const Frame& frame) {
  return decode_message<DistillResultReply>(frame);
}
Frame CancelJobRequest::encode() const { return encode_message(*this); }
CancelJobRequest CancelJobRequest::decode(const Frame& frame) {
  return decode_message<CancelJobRequest>(frame);
}
Frame CancelResultReply::encode() const { return encode_message(*this); }
CancelResultReply CancelResultReply::decode(const Frame& frame) {
  return decode_message<CancelResultReply>(frame);
}
Frame ListTreesRequest::encode() const { return encode_message(*this); }
ListTreesRequest ListTreesRequest::decode(const Frame& frame) {
  return decode_message<ListTreesRequest>(frame);
}
Frame TreeListReply::encode() const { return encode_message(*this); }
TreeListReply TreeListReply::decode(const Frame& frame) {
  return decode_message<TreeListReply>(frame);
}
Frame InterpretResultReply::encode() const { return encode_message(*this); }
InterpretResultReply InterpretResultReply::decode(const Frame& frame) {
  return decode_message<InterpretResultReply>(frame);
}

}  // namespace metis::net
// metis-lint: end-deterministic
