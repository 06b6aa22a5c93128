// Wire protocol for the network-facing serving front-end.
//
// Frames are length-prefixed:  [u32 length][u8 type][payload], all
// little-endian, where `length` counts the type byte plus the payload.
// Payloads are a flat binary encoding (bounds-checked, no external
// dependencies), described once per message by its field list (see
// "messages" below): integers little-endian, doubles as their IEEE-754 bit
// pattern — so a decision travels the wire *bitwise* intact, which is what
// lets the ABR load demo assert byte-for-byte equality between served and
// in-process FlatTree evaluations.
//
// Two planes share the framing:
//  * query plane   — kOpenSession/kQuery answered inline on the server's
//    event loop (microsecond path, the paper's Fig. 16 deployment story);
//  * control plane — kSubmitDistill/kSubmitInterpret/kPoll/kResult routed
//    to serve::Service, with kBusy as the admission-control reply.
//
// Malformed input never kills the peer: oversized frames and truncated or
// trailing payload bytes throw WireError, which the server converts into a
// kError reply (and a connection close for unframeable byte streams).
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "metis/api/runs.h"

namespace metis::net {

// Malformed frame or payload (oversized, truncated, trailing bytes, bad
// enum value). Recoverable per message; fatal per connection only when the
// byte stream itself cannot be re-framed.
class WireError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

enum class MsgType : std::uint8_t {
  // Replies.
  kError = 0,           // ErrorReply — malformed request, unknown id/key
  kBusy = 1,            // BusyReply — admission control rejected a submit
  // Query plane.
  kOpenSession = 2,     // OpenSessionRequest  -> kSessionOpened | kError
  kSessionOpened = 3,   // SessionOpenedReply
  kQuery = 4,           // QueryRequest        -> kDecision | kError
  kDecision = 5,        // DecisionReply
  // Control plane.
  kSubmitDistill = 6,   // SubmitDistillRequest -> kSubmitted | kBusy
  kSubmitInterpret = 7, // SubmitInterpretRequest -> kSubmitted | kBusy
  kSubmitted = 8,       // SubmittedReply
  kPoll = 9,            // PollRequest          -> kJobStatus | kError
  kJobStatus = 10,      // JobStatusReply
  kResult = 11,         // ResultRequest -> kDistillResult | kInterpretResult
  kDistillResult = 12,  // DistillResultReply
  kInterpretResult = 13,// InterpretResultReply
  kCancelJob = 14,      // CancelJobRequest -> kCancelResult | kError
  kCancelResult = 15,   // CancelResultReply
  kListTrees = 16,      // ListTreesRequest -> kTreeList | kError
  kTreeList = 17,       // TreeListReply
};
[[nodiscard]] const char* to_string(MsgType type);

struct Frame {
  MsgType type = MsgType::kError;
  std::vector<std::uint8_t> payload;
};

// Frames above this are rejected (per peer override via FrameDecoder /
// ServerConfig). Generous: a 200-leaf serialized tree is a few KiB.
inline constexpr std::size_t kDefaultMaxFrameBytes = 1u << 20;

// Appends the encoded frame to `out` (append, so one flush can carry every
// reply of an epoll batch).
void encode_frame(const Frame& frame, std::vector<std::uint8_t>& out);
[[nodiscard]] std::vector<std::uint8_t> encode_frame(const Frame& frame);

// Incremental decoder tolerant of arbitrary read fragmentation: feed()
// whatever the socket produced, next() yields complete frames in order.
class FrameDecoder {
 public:
  explicit FrameDecoder(std::size_t max_frame_bytes = kDefaultMaxFrameBytes)
      : max_frame_bytes_(max_frame_bytes) {}

  void feed(const std::uint8_t* data, std::size_t n);
  void feed(std::span<const std::uint8_t> data) {
    feed(data.data(), data.size());
  }

  // True (and fills `frame`) when a complete frame was buffered. Throws
  // WireError on a zero-length or oversized frame header — the stream
  // cannot be re-synchronized afterwards, so the connection must close.
  [[nodiscard]] bool next(Frame& frame);

  // Bytes buffered but not yet returned (tests; backpressure accounting).
  [[nodiscard]] std::size_t buffered_bytes() const {
    return buf_.size() - consumed_;
  }

 private:
  std::size_t max_frame_bytes_;
  std::vector<std::uint8_t> buf_;
  std::size_t consumed_ = 0;  // prefix of buf_ already handed out
};

// ---- payload primitives -----------------------------------------------------

class PayloadWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void f64(double v);  // IEEE-754 bit pattern, little-endian (bit-exact)
  void str(const std::string& s);  // u32 length + bytes

  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

// Bounds-checked reader; every decoder finishes with expect_end() so
// trailing garbage is a WireError, not silently ignored.
class PayloadReader {
 public:
  explicit PayloadReader(std::span<const std::uint8_t> data) : data_(data) {}

  [[nodiscard]] std::uint8_t u8();
  [[nodiscard]] std::uint32_t u32();
  [[nodiscard]] std::uint64_t u64();
  [[nodiscard]] double f64();
  [[nodiscard]] std::string str();
  // A u32 element count, rejected unless that many entries of at least
  // `entry_bytes` each fit in the rest of the payload, so a hostile count
  // throws WireError before anything is reserved for it.
  [[nodiscard]] std::uint32_t count(std::size_t entry_bytes);
  void expect_end() const;

 private:
  void need(std::size_t n) const;

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

// Equal-length columns that travel as one table: a u32 row count, then
// each row's cells in column order. A lone std::vector field is a
// one-column table.
template <typename... Cols>
struct Rows { std::tuple<Cols&...> cols; };
template <typename... Cols>
Rows<Cols...> rows(Cols&... cols) { return {std::tie(cols...)}; }

// ---- messages ---------------------------------------------------------------
//
// Each message states its layout once: `kType` is its frame type and
// `fields(m)` lists its fields in wire order. wire.cpp's one codec walks
// that list both ways: bool as u8 (decoded as != 0), unsigned integers
// and size_t at their width, doubles as IEEE-754 bits, strings as a u32
// length + bytes, std::optional as a 0/1 presence byte + the value, the
// override bundles as their optional fields, and rows(a, b, ...) as a u32
// row count + the rows interleaved. decode() validates exhaustively (type
// match, bounds, presence flags, no trailing bytes) and throws WireError
// otherwise; encode() throws it on ragged rows.

struct ErrorReply {
  std::string message;
  static constexpr MsgType kType = MsgType::kError;
  static auto fields(auto& m) { return std::tie(m.message); }
  [[nodiscard]] Frame encode() const;
  [[nodiscard]] static ErrorReply decode(const Frame& frame);
};

struct BusyReply {
  std::string reason;
  static constexpr MsgType kType = MsgType::kBusy;
  static auto fields(auto& m) { return std::tie(m.reason); }
  [[nodiscard]] Frame encode() const;
  [[nodiscard]] static BusyReply decode(const Frame& frame);
};

// Opens a query-plane session against a named deployed tree (the
// distilled artifact registered with Server::add_tree).
struct OpenSessionRequest {
  std::string tree;
  static constexpr MsgType kType = MsgType::kOpenSession;
  static auto fields(auto& m) { return std::tie(m.tree); }
  [[nodiscard]] Frame encode() const;
  [[nodiscard]] static OpenSessionRequest decode(const Frame& frame);
};

struct SessionOpenedReply {
  std::uint64_t session = 0;
  static constexpr MsgType kType = MsgType::kSessionOpened;
  static auto fields(auto& m) { return std::tie(m.session); }
  [[nodiscard]] Frame encode() const;
  [[nodiscard]] static SessionOpenedReply decode(const Frame& frame);
};

// One decision query. `seq` is echoed verbatim in the reply so clients may
// pipeline any number of queries per connection and match replies.
struct QueryRequest {
  std::uint64_t session = 0;
  std::uint64_t seq = 0;
  std::vector<double> features;
  static constexpr MsgType kType = MsgType::kQuery;
  static auto fields(auto& m) {
    return std::tie(m.session, m.seq, m.features);
  }
  [[nodiscard]] Frame encode() const;
  [[nodiscard]] static QueryRequest decode(const Frame& frame);
};

struct DecisionReply {
  std::uint64_t session = 0;
  std::uint64_t seq = 0;
  double decision = 0.0;  // FlatTree::predict, bit-exact
  static constexpr MsgType kType = MsgType::kDecision;
  static auto fields(auto& m) {
    return std::tie(m.session, m.seq, m.decision);
  }
  [[nodiscard]] Frame encode() const;
  [[nodiscard]] static DecisionReply decode(const Frame& frame);
};

struct SubmitDistillRequest {
  std::string scenario;
  api::DistillOverrides overrides;
  static constexpr MsgType kType = MsgType::kSubmitDistill;
  static auto fields(auto& m) { return std::tie(m.scenario, m.overrides); }
  [[nodiscard]] Frame encode() const;
  [[nodiscard]] static SubmitDistillRequest decode(const Frame& frame);
};

struct SubmitInterpretRequest {
  std::string scenario;
  api::InterpretOverrides overrides;
  static constexpr MsgType kType = MsgType::kSubmitInterpret;
  static auto fields(auto& m) { return std::tie(m.scenario, m.overrides); }
  [[nodiscard]] Frame encode() const;
  [[nodiscard]] static SubmitInterpretRequest decode(const Frame& frame);
};

struct SubmittedReply {
  std::uint64_t job = 0;
  static constexpr MsgType kType = MsgType::kSubmitted;
  static auto fields(auto& m) { return std::tie(m.job); }
  [[nodiscard]] Frame encode() const;
  [[nodiscard]] static SubmittedReply decode(const Frame& frame);
};

struct PollRequest {
  std::uint64_t job = 0;
  static constexpr MsgType kType = MsgType::kPoll;
  static auto fields(auto& m) { return std::tie(m.job); }
  [[nodiscard]] Frame encode() const;
  [[nodiscard]] static PollRequest decode(const Frame& frame);
};

// serve::JobStatus + serve::JobProgress over the wire.
struct JobStatusReply {
  std::uint64_t job = 0;
  std::uint8_t status = 0;  // static_cast<serve::JobStatus>
  std::uint64_t rounds_done = 0, rounds_total = 0;
  std::uint64_t episodes_done = 0, episodes_total = 0;
  std::uint64_t steps_done = 0, steps_total = 0;
  std::string error;  // non-empty iff status == kFailed
  static constexpr MsgType kType = MsgType::kJobStatus;
  static auto fields(auto& m) {
    return std::tie(m.job, m.status, m.rounds_done, m.rounds_total,
                    m.episodes_done, m.episodes_total, m.steps_done,
                    m.steps_total, m.error);
  }
  [[nodiscard]] Frame encode() const;
  [[nodiscard]] static JobStatusReply decode(const Frame& frame);
};

struct ResultRequest {
  std::uint64_t job = 0;
  static constexpr MsgType kType = MsgType::kResult;
  static auto fields(auto& m) { return std::tie(m.job); }
  [[nodiscard]] Frame encode() const;
  [[nodiscard]] static ResultRequest decode(const Frame& frame);
};

// Distill result summary + the deployable artifact itself: tree_text is
// tree::serialize() output, so the client can tree::deserialize, compile a
// FlatTree, and open query-plane sessions against what it just trained.
struct DistillResultReply {
  std::uint64_t job = 0;
  std::uint64_t samples = 0;
  std::uint32_t leaves = 0;
  double fidelity = 0.0;
  std::string tree_text;
  static constexpr MsgType kType = MsgType::kDistillResult;
  static auto fields(auto& m) {
    return std::tie(m.job, m.samples, m.leaves, m.fidelity, m.tree_text);
  }
  [[nodiscard]] Frame encode() const;
  [[nodiscard]] static DistillResultReply decode(const Frame& frame);
};

// Requests cooperative cancellation of a submitted job (control plane).
// The job observes the token at its next work-unit boundary; poll for the
// terminal kCancelled/kTimedOut/kDone status afterwards.
struct CancelJobRequest {
  std::uint64_t job = 0;
  static constexpr MsgType kType = MsgType::kCancelJob;
  static auto fields(auto& m) { return std::tie(m.job); }
  [[nodiscard]] Frame encode() const;
  [[nodiscard]] static CancelJobRequest decode(const Frame& frame);
};

// `delivered` is true when the cancellation request reached a live
// (non-terminal) job — not a guarantee the job ends kCancelled: it may
// still finish kDone if it was past its last checkpoint.
struct CancelResultReply {
  std::uint64_t job = 0;
  bool delivered = false;
  static constexpr MsgType kType = MsgType::kCancelResult;
  static auto fields(auto& m) { return std::tie(m.job, m.delivered); }
  [[nodiscard]] Frame encode() const;
  [[nodiscard]] static CancelResultReply decode(const Frame& frame);
};

// Asks the server what the query plane currently serves. Deliberately
// payload-free: the reply is a snapshot of the deployed-tree table.
struct ListTreesRequest {
  static constexpr MsgType kType = MsgType::kListTrees;
  static auto fields(auto&) { return std::tie(); }
  [[nodiscard]] Frame encode() const;
  [[nodiscard]] static ListTreesRequest decode(const Frame& frame);
};

// Deployed tree names with their snapshot-store versions, in the
// server's deterministic (name-sorted) deployment order. `versions[i]`
// is 0 for a tree deployed directly via add_tree without a store behind
// it (no durable version exists).
struct TreeListReply {
  std::vector<std::string> names;
  std::vector<std::uint64_t> versions;
  static constexpr MsgType kType = MsgType::kTreeList;
  static auto fields(auto& m) { return std::tuple(rows(m.names, m.versions)); }
  [[nodiscard]] Frame encode() const;
  [[nodiscard]] static TreeListReply decode(const Frame& frame);
};

// Interpret result summary: the Figure-6 diagnostics plus the top-ranked
// critical connections (edge, vertex, mask), highest mask first.
struct InterpretResultReply {
  std::uint64_t job = 0;
  double divergence = 0.0;
  double mask_l1 = 0.0;
  double entropy = 0.0;
  std::vector<std::uint32_t> edges;
  std::vector<std::uint32_t> vertices;
  std::vector<double> masks;
  static constexpr MsgType kType = MsgType::kInterpretResult;
  static auto fields(auto& m) {
    return std::tuple_cat(std::tie(m.job, m.divergence, m.mask_l1, m.entropy),
                          std::tuple(rows(m.edges, m.vertices, m.masks)));
  }
  [[nodiscard]] Frame encode() const;
  [[nodiscard]] static InterpretResultReply decode(const Frame& frame);
};

}  // namespace metis::net
