// Minimal fixture mirroring the real wire.h conventions: every
// enumerator comment starts with the message struct name, request types
// mark their reply with `->`, and each message struct declares its kType.
#pragma once

namespace metis::net {

enum class MsgType : std::uint8_t {
  kError = 0,  // ErrorReply — something went wrong
  kPing = 1,   // PingRequest -> kPong | kError
  kPong = 2,   // PongReply
  kQuery = 3,  // QueryRequest -> kPong | kError
};

struct Frame {};
struct ErrorReply {
  static constexpr MsgType kType = MsgType::kError;
};
struct PingRequest {
  static constexpr MsgType kType = MsgType::kPing;
};
struct PongReply { static constexpr MsgType kType = MsgType::kPong; };
struct QueryRequest {
  std::string text;
  static constexpr MsgType kType = MsgType::kQuery;
  static auto fields(auto& m) { return std::tie(m.text); }
};

}  // namespace metis::net
