#include "metis/net/client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <utility>

#include "metis/net/io.h"

namespace metis::net {

namespace {

[[noreturn]] void throw_errno(const char* what) {
  throw std::runtime_error(std::string(what) + ": " + std::strerror(errno));
}

// Polls `fd` for `events` with an optional wall-clock deadline, retrying
// EINTR with the remaining budget. Returns true when the fd is ready,
// false when the deadline expired first. `deadline_ms` <= 0 = unbounded.
bool poll_until(int fd, short events, std::int64_t deadline_ms) {
  const auto start = std::chrono::steady_clock::now();
  for (;;) {
    int timeout = -1;
    if (deadline_ms > 0) {
      const auto elapsed =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              std::chrono::steady_clock::now() - start)
              .count();
      timeout = static_cast<int>(deadline_ms - elapsed);
      if (timeout <= 0) return false;
    }
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = events;
    const int rc = io::poll(&pfd, 1, timeout);
    if (rc > 0) return true;
    if (rc == 0) return false;
    if (errno == EINTR) continue;
    throw_errno("poll");
  }
}

}  // namespace

int Client::dial(Endpoint endpoint, const std::string& path,
                 const std::string& host, std::uint16_t port,
                 const ClientConfig& config) {
  sockaddr_un un{};
  sockaddr_in in{};
  const sockaddr* addr = nullptr;
  socklen_t addrlen = 0;
  int family = AF_UNIX;
  if (endpoint == Endpoint::kUnix) {
    if (path.empty() || path.size() >= sizeof(un.sun_path)) {
      throw std::runtime_error("unix socket path empty or too long: " + path);
    }
    un.sun_family = AF_UNIX;
    std::memcpy(un.sun_path, path.c_str(), path.size() + 1);
    addr = reinterpret_cast<const sockaddr*>(&un);
    addrlen = sizeof(un);
  } else {
    family = AF_INET;
    in.sin_family = AF_INET;
    in.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &in.sin_addr) != 1) {
      throw std::runtime_error("bad IPv4 address: " + host);
    }
    addr = reinterpret_cast<const sockaddr*>(&in);
    addrlen = sizeof(in);
  }

  // Non-blocking dial regardless of the timeout setting: it gives one
  // uniform EINTR/timeout story for both families.
  const int fd =
      ::socket(family, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0);
  if (fd < 0) throw_errno("socket");
  bool in_progress = false;
  for (;;) {
    if (io::connect(fd, addr, addrlen) == 0) break;
    if (errno == EISCONN) break;  // the retried connect already landed
    if (errno == EINTR || errno == EALREADY) continue;
    if (errno == EINPROGRESS) {
      in_progress = true;
      break;
    }
    const int saved = errno;
    ::close(fd);
    errno = saved;
    throw_errno("connect");
  }
  if (in_progress) {
    const auto deadline = config.connect_timeout_ms > 0
                              ? static_cast<std::int64_t>(
                                    config.connect_timeout_ms)
                              : -1;
    bool ready = false;
    try {
      ready = poll_until(fd, POLLOUT, deadline);
    } catch (...) {
      ::close(fd);
      throw;
    }
    if (!ready) {
      ::close(fd);
      throw TimeoutError("connect timed out after " +
                         std::to_string(config.connect_timeout_ms) + "ms");
    }
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0) {
      ::close(fd);
      errno = err != 0 ? err : errno;
      throw_errno("connect");
    }
  }
  // Back to blocking mode: the client's I/O model is blocking-with-poll.
  const int flags = ::fcntl(fd, F_GETFL);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags & ~O_NONBLOCK) < 0) {
    ::close(fd);
    throw_errno("fcntl(clear O_NONBLOCK)");
  }
  return fd;
}

Client Client::connect_unix(const std::string& path,
                            const ClientConfig& config) {
  Client c;
  c.config_ = config;
  c.endpoint_ = Endpoint::kUnix;
  c.unix_path_ = path;
  c.backoff_rng_ = Rng(config.seed);
  c.fd_ = dial(Endpoint::kUnix, path, {}, 0, config);
  return c;
}

Client Client::connect_tcp(const std::string& host, std::uint16_t port,
                           const ClientConfig& config) {
  Client c;
  c.config_ = config;
  c.endpoint_ = Endpoint::kTcp;
  c.tcp_host_ = host;
  c.tcp_port_ = port;
  c.backoff_rng_ = Rng(config.seed);
  c.fd_ = dial(Endpoint::kTcp, {}, host, port, config);
  return c;
}

Client::Client(Client&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      decoder_(std::move(other.decoder_)),
      config_(other.config_),
      endpoint_(other.endpoint_),
      unix_path_(std::move(other.unix_path_)),
      tcp_host_(std::move(other.tcp_host_)),
      tcp_port_(other.tcp_port_),
      backoff_rng_(other.backoff_rng_),
      sessions_(std::move(other.sessions_)) {}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = std::exchange(other.fd_, -1);
    decoder_ = std::move(other.decoder_);
    config_ = other.config_;
    endpoint_ = other.endpoint_;
    unix_path_ = std::move(other.unix_path_);
    tcp_host_ = std::move(other.tcp_host_);
    tcp_port_ = other.tcp_port_;
    backoff_rng_ = other.backoff_rng_;
    sessions_ = std::move(other.sessions_);
  }
  return *this;
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

void Client::reconnect() {
  if (endpoint_ == Endpoint::kNone) {
    throw std::logic_error("reconnect() on a moved-from client");
  }
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  // The old connection's framing state and sessions are dead with it.
  decoder_ = FrameDecoder();
  sessions_.clear();
  std::exception_ptr last;
  for (std::uint32_t attempt = 0; attempt <= config_.max_retries; ++attempt) {
    if (attempt > 0) {
      // min(max, base * 2^(k-1)), jittered into [0.5, 1.0) of itself so a
      // fleet of retrying clients does not stampede in lockstep. The rng
      // is seeded, so a given client's schedule is replayable.
      std::uint64_t backoff = config_.backoff_base_ms;
      for (std::uint32_t k = 1; k < attempt && backoff < config_.backoff_max_ms;
           ++k) {
        backoff *= 2;
      }
      backoff = std::min(backoff, config_.backoff_max_ms);
      const double jitter = backoff_rng_.uniform(0.5, 1.0);
      const auto sleep_ms = static_cast<std::int64_t>(
          static_cast<double>(backoff) * jitter);
      if (sleep_ms > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
      }
    }
    try {
      fd_ = dial(endpoint_, unix_path_, tcp_host_, tcp_port_, config_);
      return;
    } catch (...) {
      last = std::current_exception();
    }
  }
  std::rethrow_exception(last);
}

void Client::send_frame(const Frame& frame) {
  const std::vector<std::uint8_t> bytes = encode_frame(frame);
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = io::send(fd_, bytes.data() + sent, bytes.size() - sent,
                               MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("send");
    }
    sent += static_cast<std::size_t>(n);
  }
}

Frame Client::read_frame() {
  Frame frame;
  if (decoder_.next(frame)) return frame;
  const auto deadline = config_.read_timeout_ms > 0
                            ? static_cast<std::int64_t>(config_.read_timeout_ms)
                            : -1;
  const auto start = std::chrono::steady_clock::now();
  std::uint8_t buf[4096];
  for (;;) {
    if (deadline > 0) {
      const auto elapsed =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              std::chrono::steady_clock::now() - start)
              .count();
      if (elapsed >= deadline || !poll_until(fd_, POLLIN, deadline - elapsed)) {
        throw TimeoutError("read timed out after " +
                           std::to_string(config_.read_timeout_ms) + "ms");
      }
    }
    const ssize_t n = io::recv(fd_, buf, sizeof(buf), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("recv");
    }
    if (n == 0) throw std::runtime_error("connection closed by server");
    decoder_.feed(buf, static_cast<std::size_t>(n));
    if (decoder_.next(frame)) return frame;
  }
}

Frame Client::call(const Frame& frame) {
  send_frame(frame);
  return read_frame();
}

namespace {

// The typed helpers' one reply step: a kError reply surfaces as a
// WireError carrying the server's explanation, anything else must decode
// as Reply.
template <typename Reply>
Reply expect_reply(const Frame& reply) {
  if (reply.type == MsgType::kError) {
    throw WireError("server error: " + ErrorReply::decode(reply).message);
  }
  return Reply::decode(reply);
}

// A submit's reply: kBusy (admission control) is nullopt.
std::optional<std::uint64_t> submitted_job(const Frame& reply) {
  if (reply.type == MsgType::kBusy) return std::nullopt;
  return expect_reply<SubmittedReply>(reply).job;
}

}  // namespace

std::uint64_t Client::open_session(const std::string& tree) {
  const Frame reply = call(OpenSessionRequest{tree}.encode());
  return expect_reply<SessionOpenedReply>(reply).session;
}

double Client::query(std::uint64_t session, std::uint64_t seq,
                     const std::vector<double>& features) {
  const Frame reply = call(QueryRequest{session, seq, features}.encode());
  return expect_reply<DecisionReply>(reply).decision;
}

double Client::query_robust(const std::string& tree, std::uint64_t seq,
                            const std::vector<double>& features) {
  // One initial try + max_retries reconnect-and-replay rounds. Transport
  // failures (torn connection, timeout, stream desync) trigger the retry;
  // WireError from a kError reply propagates — the server answered, and
  // it will answer the same way again.
  for (std::uint32_t round = 0;; ++round) {
    try {
      auto it = sessions_.find(tree);
      if (it == sessions_.end()) {
        it = sessions_.emplace(tree, open_session(tree)).first;
      }
      return query(it->second, seq, features);
    } catch (const WireError&) {
      throw;
    } catch (const std::runtime_error&) {
      if (round >= config_.max_retries) throw;
      reconnect();  // clears sessions_; the next round re-opens
    }
  }
}

std::optional<std::uint64_t> Client::submit_distill(
    const std::string& scenario, const api::DistillOverrides& overrides) {
  return submitted_job(
      call(SubmitDistillRequest{scenario, overrides}.encode()));
}

std::optional<std::uint64_t> Client::submit_interpret(
    const std::string& scenario, const api::InterpretOverrides& overrides) {
  return submitted_job(
      call(SubmitInterpretRequest{scenario, overrides}.encode()));
}

JobStatusReply Client::poll(std::uint64_t job) {
  return expect_reply<JobStatusReply>(call(PollRequest{job}.encode()));
}

DistillResultReply Client::distill_result(std::uint64_t job) {
  return expect_reply<DistillResultReply>(call(ResultRequest{job}.encode()));
}

InterpretResultReply Client::interpret_result(std::uint64_t job) {
  const Frame reply = call(ResultRequest{job}.encode());
  return expect_reply<InterpretResultReply>(reply);
}

bool Client::cancel_job(std::uint64_t job) {
  const Frame reply = call(CancelJobRequest{job}.encode());
  return expect_reply<CancelResultReply>(reply).delivered;
}

TreeListReply Client::list_trees() {
  return expect_reply<TreeListReply>(call(ListTreesRequest{}.encode()));
}

}  // namespace metis::net
