#include "harness.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <numeric>

namespace metisbench {

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double rank = std::ceil(p * static_cast<double>(xs.size()));
  const std::size_t at = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return xs[std::min(at, xs.size() - 1)];
}

double mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  return std::accumulate(xs.begin(), xs.end(), 0.0) /
         static_cast<double>(xs.size());
}

void Ledger::fail(const std::string& what) {
  attempted_.fetch_add(1);
  failed_.fetch_add(1);
  metis::util::MutexLock lock(mu_);
  if (notes_.size() < 8) notes_.push_back(what);
}

std::vector<std::string> Ledger::first_failures() const {
  metis::util::MutexLock lock(mu_);
  return notes_;
}

namespace {
// Index of the innermost open span on this thread (-1: none).
thread_local int t_open_span = -1;
}  // namespace

Tracer::Span::Span(Tracer* tracer, const char* name, std::uint64_t job)
    : tracer_(tracer),
      name_(name),
      job_(job),
      start_(Clock::now()),
      parent_(t_open_span),
      index_(tracer->open(name, start_, parent_, job)) {
  t_open_span = index_;
}

Tracer::Span::~Span() {
  tracer_->close(index_, Clock::now());
  t_open_span = parent_;
}

int Tracer::open(const char* name, Clock::time_point start, int parent,
                 std::uint64_t job) {
  metis::util::MutexLock lock(mu_);
  spans_.push_back(Record{name, elapsed_s(origin_, start), -1.0, parent, job});
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::close(int index, Clock::time_point end) {
  metis::util::MutexLock lock(mu_);
  spans_[static_cast<std::size_t>(index)].end_s = elapsed_s(origin_, end);
}

void Tracer::record(const char* name, Clock::time_point start,
                    Clock::time_point end, std::uint64_t job) {
  metis::util::MutexLock lock(mu_);
  spans_.push_back(Record{name, elapsed_s(origin_, start),
                          elapsed_s(origin_, end), t_open_span, job});
}

std::map<std::string, Tracer::Totals> Tracer::totals() const {
  metis::util::MutexLock lock(mu_);
  // Children of one span run on its thread inside it, one after another,
  // so the time they cover is the sum of their durations.
  std::vector<double> child_s(spans_.size(), 0.0);
  for (const Record& r : spans_) {
    if (r.parent >= 0) {
      child_s[static_cast<std::size_t>(r.parent)] += r.end_s - r.start_s;
    }
  }
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Record& r = spans_[i];
    Totals& t = out[r.name];
    ++t.count;
    t.total_s += r.end_s - r.start_s;
    t.self_s += r.end_s - r.start_s - child_s[i];
  }
  return out;
}

std::size_t Tracer::size() const {
  metis::util::MutexLock lock(mu_);
  return spans_.size();
}

void Tracer::write_jsonl(const std::string& path) const {
  metis::util::MutexLock lock(mu_);
  std::ofstream out(path);
  for (const Record& r : spans_) {
    out << "{\"name\":\"" << r.name << "\",\"start_us\":" << r.start_s * 1e6
        << ",\"end_us\":" << r.end_s * 1e6 << ",\"parent\":" << r.parent
        << ",\"job\":" << r.job << "}\n";
  }
}

}  // namespace metisbench
