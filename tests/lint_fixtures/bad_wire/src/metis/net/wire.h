// Seeded-violation fixture: kPing lost its to_string case, PingReply
// lost its decode() and declares kPing's type instead of kPong's, and the
// kQuery dispatch arm was removed from handle_frame — the four
// regressions the wire-exhaustiveness check exists to catch.
#pragma once

namespace metis::net {

enum class MsgType : std::uint8_t {
  kError = 0,  // ErrorReply — something went wrong
  kPing = 1,   // PingRequest -> kPong | kError
  kPong = 2,   // PingReply
  kQuery = 3,  // QueryRequest -> kPong | kError
};

struct Frame {};
struct ErrorReply {
  static constexpr MsgType kType = MsgType::kError;
};
struct PingRequest {
  static constexpr MsgType kType = MsgType::kPing;
};
// Copied from PingRequest, and the type was never changed.
struct PingReply {
  static constexpr MsgType kType = MsgType::kPing;
};
struct QueryRequest {
  static constexpr MsgType kType = MsgType::kQuery;
};

}  // namespace metis::net
