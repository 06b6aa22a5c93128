// Cooperative cancellation with deadlines.
//
// A CancelSource owns the request side (cancel(), set_deadline()); the
// CancelTokens it hands out are cheap copyable views that long-running
// loops poll at *work-unit boundaries* — lockstep steps in trace
// collection, DAgger-round boundaries in distillation, mask-step
// boundaries in interpretation. Checking only at boundaries is the
// point: a job that runs to completion performs exactly the same
// arithmetic whether or not a token was attached, so finished artifacts
// stay bitwise identical with cancellation enabled.
//
// Deadlines are steady_clock based and folded into the same token:
// `token.check()` throws CancelledError with `timed_out()` true when the
// deadline (rather than an explicit cancel()) fired, so callers can
// distinguish kCancelled from kTimedOut without a second channel.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <utility>

namespace metis::util {

namespace detail {

// Shared between one CancelSource and any number of CancelTokens.
// Lock-free: the flag is a plain atomic bool and the deadline is the
// steady_clock epoch offset in nanoseconds (0 = no deadline), written
// once by the source before the job starts or from cancel() afterwards.
struct CancelState {
  std::atomic<bool> cancelled{false};
  std::atomic<std::int64_t> deadline_ns{0};  // steady_clock, 0 = none
};

}  // namespace detail

// Thrown by CancelToken::check(). `timed_out()` distinguishes a deadline
// expiry from an explicit cancel() — serve::Service maps the former to
// JobStatus::kTimedOut and the latter to kCancelled.
class CancelledError : public std::runtime_error {
 public:
  explicit CancelledError(bool timed_out)
      : std::runtime_error(timed_out ? "deadline exceeded" : "cancelled"),
        timed_out_(timed_out) {}

  [[nodiscard]] bool timed_out() const noexcept { return timed_out_; }

 private:
  bool timed_out_;
};

// Copyable view polled by workers. Default-constructed tokens are inert
// (never cancelled, no deadline) so configs can carry one unconditionally.
class CancelToken {
 public:
  CancelToken() = default;

  // True once cancel() was called or the deadline passed.
  [[nodiscard]] bool cancelled() const {
    if (!state_) return false;
    if (state_->cancelled.load(std::memory_order_acquire)) return true;
    return deadline_passed();
  }

  // True iff the *deadline* fired (implies cancelled()).
  [[nodiscard]] bool timed_out() const {
    return state_ != nullptr && deadline_passed();
  }

  // Boundary checkpoint: throws CancelledError when cancellation was
  // requested. Cheap when inert (one null check).
  void check() const {
    if (!state_) return;
    const bool deadline = deadline_passed();
    if (deadline || state_->cancelled.load(std::memory_order_acquire)) {
      throw CancelledError(deadline);
    }
  }

  [[nodiscard]] bool valid() const noexcept { return state_ != nullptr; }

 private:
  friend class CancelSource;
  explicit CancelToken(std::shared_ptr<detail::CancelState> state)
      : state_(std::move(state)) {}

  [[nodiscard]] bool deadline_passed() const {
    const std::int64_t ns = state_->deadline_ns.load(std::memory_order_acquire);
    if (ns == 0) return false;
    return std::chrono::steady_clock::now().time_since_epoch() >=
           std::chrono::nanoseconds(ns);
  }

  std::shared_ptr<detail::CancelState> state_;
};

// Request side. One per job in serve::Service; tests drive it directly.
class CancelSource {
 public:
  CancelSource() : state_(std::make_shared<detail::CancelState>()) {}

  CancelSource(const CancelSource&) = delete;
  CancelSource& operator=(const CancelSource&) = delete;
  CancelSource(CancelSource&&) = default;
  CancelSource& operator=(CancelSource&&) = default;

  [[nodiscard]] CancelToken token() const { return CancelToken(state_); }

  // Requests cancellation. Idempotent; returns true on the first call.
  bool cancel() {
    return !state_->cancelled.exchange(true, std::memory_order_acq_rel);
  }

  // Arms (or rearms) an absolute steady_clock deadline.
  void set_deadline(std::chrono::steady_clock::time_point deadline) {
    state_->deadline_ns.store(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            deadline.time_since_epoch())
            .count(),
        std::memory_order_release);
  }

  void set_deadline_after(std::chrono::nanoseconds delay) {
    set_deadline(std::chrono::steady_clock::now() + delay);
  }

  [[nodiscard]] bool cancelled() const {
    return token().cancelled();
  }

 private:
  std::shared_ptr<detail::CancelState> state_;
};

}  // namespace metis::util
