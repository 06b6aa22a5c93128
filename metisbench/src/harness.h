// Shared pieces of the benchmark binary: clocks and order statistics, the
// failure ledger, the metric report, and the span tracer.
//
// Spans are recorded from the benchmark's own code around its calls into the
// library's public functions; nothing inside the program is instrumented.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "metis/util/mutex.h"

namespace metisbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double elapsed_s(Clock::time_point from,
                                      Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}
[[nodiscard]] inline double since_s(Clock::time_point from) {
  return elapsed_s(from, Clock::now());
}

// Nearest-rank percentile of `xs` (p in [0, 1]); 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> xs, double p);
[[nodiscard]] inline double median(const std::vector<double>& xs) {
  return percentile(xs, 0.5);
}
[[nodiscard]] double mean(const std::vector<double>& xs);

// Every operation the benchmark attempts, and the ones that failed: a
// kError or kBusy reply, a timeout, a failed job, or an output mismatch.
// `failed / attempted` is the run's fail_ratio.
class Ledger {
 public:
  void ok() { attempted_.fetch_add(1); }
  void fail(const std::string& what);
  // Runs `op`; an exception is one failed operation, otherwise one ok.
  template <typename Op>
  bool attempt(const char* what, Op&& op) {
    try {
      op();
      ok();
      return true;
    } catch (const std::exception& e) {
      fail(std::string(what) + ": " + e.what());
      return false;
    }
  }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_.load(); }
  [[nodiscard]] std::uint64_t failed() const { return failed_.load(); }
  [[nodiscard]] std::vector<std::string> first_failures() const;

 private:
  std::atomic<std::uint64_t> attempted_{0};
  std::atomic<std::uint64_t> failed_{0};
  mutable metis::util::Mutex mu_;
  std::vector<std::string> notes_ GUARDED_BY(mu_);
};

// How many times each output check ran, printed with every result (the
// self-check asserts all of them are non-zero).
struct Checks {
  std::atomic<std::uint64_t> decisions_compared{0};
  std::atomic<std::uint64_t> trees_compared{0};
  std::atomic<std::uint64_t> rankings_compared{0};
  std::atomic<std::uint64_t> stage_sums_checked{0};
};

struct Metric {
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

// Named metrics in name order.
class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit,
           std::size_t samples = 1) {
    metrics_[name] = Metric{value, unit, samples};
  }
  [[nodiscard]] const std::map<std::string, Metric>& metrics() const {
    return metrics_;
  }

 private:
  std::map<std::string, Metric> metrics_;
};

// In-memory span recorder. A span has a name, start and end, the span
// open on the same thread when it began (its parent), and a job id shared
// by the spans of one job. Spans are written out when the run ends.
class Tracer {
 public:
  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  class Span {
   public:
    Span(Tracer* tracer, const char* name, std::uint64_t job);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_;
    const char* name_;
    std::uint64_t job_;
    Clock::time_point start_;
    int parent_;
    int index_;
  };

  // Records an interval observed across threads (submit -> done).
  void record(const char* name, Clock::time_point start, Clock::time_point end,
              std::uint64_t job);

  struct Totals {
    std::size_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;  // total minus the time its child spans cover
  };
  // Per-name totals over every recorded span.
  [[nodiscard]] std::map<std::string, Totals> totals() const;
  [[nodiscard]] std::size_t size() const;
  // One JSON object per line: name, start_us, end_us, parent, job.
  void write_jsonl(const std::string& path) const;

 private:
  struct Record {
    const char* name;
    double start_s;
    double end_s;
    int parent;
    std::uint64_t job;
  };
  int open(const char* name, Clock::time_point start, int parent,
           std::uint64_t job);
  void close(int index, Clock::time_point end);

  Clock::time_point origin_;
  mutable metis::util::Mutex mu_;
  std::vector<Record> spans_ GUARDED_BY(mu_);
};

// A span when tracing is on, nothing otherwise.
class MaybeSpan {
 public:
  MaybeSpan(Tracer* tracer, const char* name, std::uint64_t job = 0) {
    if (tracer != nullptr) span_.emplace(tracer, name, job);
  }

 private:
  std::optional<Tracer::Span> span_;
};

}  // namespace metisbench
