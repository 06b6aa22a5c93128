// Unit + property tests for metis/util: RNG distributions, statistics,
// the table printer, the annotated concurrency primitives
// (Mutex/CondVar wrappers), the ISA level selection, cooperative
// cancellation, deterministic fault plans, and crash-safe atomic file
// writes.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "metis/util/atomic_file.h"
#include "metis/util/cancel.h"
#include "metis/util/check.h"
#include "metis/util/checksum.h"
#include "metis/util/fault.h"
#include "metis/util/isa.h"
#include "metis/util/lock_graph.h"
#include "metis/util/mutex.h"
#include "metis/util/rng.h"
#include "metis/util/stats.h"
#include "metis/util/table.h"

namespace metis {
namespace {

TEST(Check, ThrowsWithContext) {
  try {
    MET_CHECK_MSG(1 == 2, "custom context");
    FAIL() << "expected logic_error";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("custom context"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
  }
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIntCoversRange) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_int(7));
  EXPECT_EQ(seen.size(), 7u);
  EXPECT_EQ(*seen.rbegin(), 6u);
}

TEST(Rng, NormalMomentsApproximatelyCorrect) {
  Rng rng(13);
  RunningStats st;
  for (int i = 0; i < 50000; ++i) st.add(rng.normal(2.0, 3.0));
  EXPECT_NEAR(st.mean(), 2.0, 0.1);
  EXPECT_NEAR(st.stddev(), 3.0, 0.1);
}

TEST(Rng, ExponentialMeanIsInverseRate) {
  Rng rng(17);
  RunningStats st;
  for (int i = 0; i < 50000; ++i) st.add(rng.exponential(0.5));
  EXPECT_NEAR(st.mean(), 2.0, 0.1);
}

TEST(Rng, ParetoRespectsScale) {
  Rng rng(19);
  for (int i = 0; i < 1000; ++i) EXPECT_GE(rng.pareto(1.5, 2.0), 1.5);
}

TEST(Rng, CategoricalMatchesWeights) {
  Rng rng(23);
  std::vector<double> w = {1.0, 3.0, 0.0, 6.0};
  std::vector<int> counts(4, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.categorical(w)];
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(counts[0] / double(n), 0.1, 0.02);
  EXPECT_NEAR(counts[1] / double(n), 0.3, 0.02);
  EXPECT_NEAR(counts[3] / double(n), 0.6, 0.02);
}

TEST(Rng, CategoricalRejectsAllZeroWeights) {
  Rng rng(29);
  EXPECT_THROW(rng.categorical({0.0, 0.0}), std::logic_error);
}

TEST(Rng, PermutationIsAPermutation) {
  Rng rng(31);
  auto p = rng.permutation(50);
  std::set<std::size_t> s(p.begin(), p.end());
  EXPECT_EQ(s.size(), 50u);
  EXPECT_EQ(*s.rbegin(), 49u);
}

TEST(Rng, SplitStreamsAreIndependentlySeeded) {
  Rng a(5);
  Rng b = a.split();
  Rng c = a.split();
  EXPECT_NE(b.next_u64(), c.next_u64());
}

TEST(Stats, MeanAndVariance) {
  std::vector<double> xs = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
  EXPECT_DOUBLE_EQ(variance(xs), 1.25);
}

TEST(Stats, MeanRejectsEmpty) {
  std::vector<double> xs;
  EXPECT_THROW((void)mean(xs), std::logic_error);
}

TEST(Stats, PercentileInterpolates) {
  std::vector<double> xs = {10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 40.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 25.0);
  EXPECT_DOUBLE_EQ(median(xs), 25.0);
}

TEST(Stats, PercentileSingleElement) {
  std::vector<double> xs = {3.14};
  EXPECT_DOUBLE_EQ(percentile(xs, 99), 3.14);
}

TEST(Stats, PearsonPerfectCorrelation) {
  std::vector<double> xs = {1, 2, 3, 4, 5};
  std::vector<double> ys = {2, 4, 6, 8, 10};
  EXPECT_NEAR(pearson(xs, ys), 1.0, 1e-12);
  std::vector<double> neg = {10, 8, 6, 4, 2};
  EXPECT_NEAR(pearson(xs, neg), -1.0, 1e-12);
}

TEST(Stats, PearsonConstantSeriesIsZero) {
  std::vector<double> xs = {1, 1, 1};
  std::vector<double> ys = {1, 2, 3};
  EXPECT_DOUBLE_EQ(pearson(xs, ys), 0.0);
}

TEST(Stats, EmpiricalCdfSortedAndNormalized) {
  std::vector<double> xs = {3, 1, 2};
  Cdf cdf = empirical_cdf(xs);
  ASSERT_EQ(cdf.values.size(), 3u);
  EXPECT_DOUBLE_EQ(cdf.values[0], 1.0);
  EXPECT_DOUBLE_EQ(cdf.values[2], 3.0);
  EXPECT_DOUBLE_EQ(cdf.cum_fraction.back(), 1.0);
}

TEST(Stats, FractionBelow) {
  std::vector<double> xs = {0.1, 0.5, 0.9};
  EXPECT_DOUBLE_EQ(fraction_below(xs, 0.5), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(fraction_below({}, 1.0), 0.0);
}

TEST(Stats, HistogramFrequenciesSumToOne) {
  Rng rng(37);
  std::vector<double> xs;
  for (int i = 0; i < 1000; ++i) xs.push_back(rng.uniform());
  Histogram h = histogram(xs, 0.0, 1.0, 10);
  double total = 0.0;
  for (double f : h.frequency) total += f;
  EXPECT_NEAR(total, 1.0, 1e-12);
  EXPECT_EQ(h.bin_edges.size(), 11u);
}

TEST(Stats, HistogramClampsOutOfRange) {
  std::vector<double> xs = {-5.0, 10.0};
  Histogram h = histogram(xs, 0.0, 1.0, 2);
  EXPECT_DOUBLE_EQ(h.frequency.front(), 0.5);
  EXPECT_DOUBLE_EQ(h.frequency.back(), 0.5);
}

TEST(Stats, RunningStatsMatchesBatch) {
  Rng rng(41);
  std::vector<double> xs;
  RunningStats st;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(1.0, 2.0);
    xs.push_back(x);
    st.add(x);
  }
  EXPECT_NEAR(st.mean(), mean(xs), 1e-9);
  EXPECT_NEAR(st.variance(), variance(xs), 1e-9);
}

TEST(Table, PrintsAlignedRows) {
  Table t({"name", "value"});
  t.add_row({"alpha", Table::num(1.23456, 2)});
  t.add_row({"bb", Table::pct(0.051)});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("1.23"), std::string::npos);
  EXPECT_NE(out.find("5.10%"), std::string::npos);
}

TEST(Table, RejectsRaggedRows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::logic_error);
}

// ---- annotated concurrency primitives ---------------------------------------

TEST(Mutex, MutexLockExcludesConcurrentCriticalSections) {
  util::Mutex mu;
  int counter = 0;  // deliberately non-atomic: the lock is the guard
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 5000; ++i) {
        util::MutexLock lock(mu);
        ++counter;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter, 4 * 5000);
}

TEST(Mutex, CondVarWaitReleasesAndReacquires) {
  util::Mutex mu;
  util::CondVar cv;
  bool ready = false;
  int observed = -1;
  std::thread waiter([&] {
    util::MutexLock lock(mu);
    while (!ready) cv.wait(mu);
    observed = 42;  // still under the lock after wait() returns
  });
  {
    util::MutexLock lock(mu);
    ready = true;
  }
  cv.notify_one();
  waiter.join();
  EXPECT_EQ(observed, 42);
}

TEST(Mutex, SharedMutexAllowsConcurrentReaders) {
  util::SharedMutex mu;
  std::atomic<int> concurrent{0};
  std::atomic<int> peak{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      for (int i = 0; i < 200; ++i) {
        util::SharedLock lock(mu);
        const int now = concurrent.fetch_add(1) + 1;
        int prev = peak.load();
        while (now > prev && !peak.compare_exchange_weak(prev, now)) {
        }
        concurrent.fetch_sub(1);
      }
    });
  }
  for (auto& t : readers) t.join();
  // With 4 spinning readers, at least one overlap is effectively certain;
  // a WriterLock-style exclusive implementation would pin peak at 1.
  EXPECT_GE(peak.load(), 1);
}

// ---- lock-order sanitizer ---------------------------------------------------

#if METIS_LOCK_GRAPH_AVAILABLE

// The death tests spawn threads inside the death statement, so the
// fork-style default is unsafe; "threadsafe" re-executes the binary and
// replays SetUp in the child, which re-arms detection there.
class LockGraphTest : public ::testing::Test {
 protected:
  void SetUp() override {
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    util::lock_graph::set_enabled(true);
    util::lock_graph::reset();
  }
  void TearDown() override {
    util::lock_graph::reset();
    util::lock_graph::set_enabled(false);
  }
};

TEST_F(LockGraphTest, ConsistentOrderIsAccepted) {
  util::Mutex a, b;
  for (int i = 0; i < 3; ++i) {
    util::MutexLock la(a);
    util::MutexLock lb(b);
  }
  const util::lock_graph::Stats s = util::lock_graph::stats();
  EXPECT_EQ(s.acquisitions, 6u);
  EXPECT_EQ(s.nodes, 2u);
  EXPECT_EQ(s.edges, 1u);  // a->b recorded once, then recognized
}

TEST_F(LockGraphTest, InversionAbortsPrintingBothAcquisitionStacks) {
  auto scenario = [] {
    util::Mutex a, b;
    {
      util::MutexLock la(a);
      util::MutexLock lb(b);  // records a -> b
    }
    std::thread t([&] {
      util::MutexLock lb(b);
      util::MutexLock la(a);  // b -> a closes the cycle: abort
    });
    t.join();
  };
  // Both sides of the inversion must be visible: the acquiring thread's
  // held stack and the recorded stack of the thread that established the
  // opposite order, each with util_test.cpp sites.
  EXPECT_DEATH(scenario(),
               "lock-order cycle detected(.|\n)*while holding(.|\n)*"
               "util_test(.|\n)*recorded acquisition stack(.|\n)*"
               "util_test");
}

TEST_F(LockGraphTest, SameThreadReentryAborts) {
  EXPECT_DEATH(
      {
        util::Mutex m;
        m.lock();
        m.lock();  // UB on std::mutex; reported before blocking
      },
      "re-acquisition of a held lock");
}

TEST_F(LockGraphTest, SharedAndWriterAcquisitionsShareTheOrderGraph) {
  auto scenario = [] {
    util::SharedMutex rw;
    util::Mutex mu;
    {
      util::SharedLock r(rw);
      util::MutexLock l(mu);  // records rw -> mu (reader side)
    }
    std::thread t([&] {
      util::MutexLock l(mu);
      util::WriterLock w(rw);  // mu -> rw inverts it: abort
    });
    t.join();
  };
  EXPECT_DEATH(scenario(), "lock-order cycle detected(.|\n)*shared @");
}

TEST_F(LockGraphTest, SuccessfulTryLockIsTracked) {
  util::Mutex a;
  ASSERT_TRUE(a.try_lock());
  a.unlock();
  EXPECT_EQ(util::lock_graph::stats().acquisitions, 1u);
}

TEST_F(LockGraphTest, DestroyedLockLeavesTheGraph) {
  {
    util::Mutex a;
    util::MutexLock l(a);
  }  // ~Mutex unregisters: address reuse must not alias old edges
  EXPECT_EQ(util::lock_graph::stats().nodes, 0u);
}

TEST_F(LockGraphTest, DisabledModeRecordsNothingAndNeverAborts) {
  util::lock_graph::set_enabled(false);
  util::lock_graph::reset();
  util::Mutex a, b;
  {
    util::MutexLock la(a);
    util::MutexLock lb(b);
  }
  {
    util::MutexLock lb(b);
    util::MutexLock la(a);  // inverted order: must be silent when off
  }
  const util::lock_graph::Stats s = util::lock_graph::stats();
  EXPECT_EQ(s.acquisitions, 0u);
  EXPECT_EQ(s.nodes, 0u);
  EXPECT_EQ(s.edges, 0u);
}

#endif  // METIS_LOCK_GRAPH_AVAILABLE

// ---- ISA level selection ---------------------------------------------------

TEST(Isa, SupportedLevelsBestFirstEndingInGenericAndReference) {
  const std::vector<isa::Level>& levels = isa::supported_levels();
  ASSERT_GE(levels.size(), 2u);
  EXPECT_EQ(levels[levels.size() - 2], isa::Level::kGeneric);
  EXPECT_EQ(levels.back(), isa::Level::kReference);
  for (std::size_t i = 1; i < levels.size(); ++i) {
    EXPECT_GT(levels[i - 1], levels[i]) << "not best first at " << i;
  }
}

// The test's own probe, so a broken ladder in isa.cpp cannot vouch for
// itself.
TEST(Isa, ActiveIsTheCpusBestLevel) {
  isa::Level want = isa::Level::kGeneric;
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f")) {
    want = isa::Level::kAvx512f;
  } else if (__builtin_cpu_supports("avx2")) {
    want = isa::Level::kAvx2;
  }
#endif
  std::printf("[ isa ] active level: %s\n", isa::to_string(isa::active()));
  EXPECT_EQ(isa::active(), want);
  EXPECT_EQ(isa::active(), isa::supported_levels().front());
}

TEST(Isa, ScopedLevelNestsAndRestores) {
  const isa::Level best = isa::active();
  {
    isa::ScopedLevel outer(isa::Level::kGeneric);
    EXPECT_EQ(isa::active(), isa::Level::kGeneric);
    {
      isa::ScopedLevel inner(isa::Level::kReference);
      EXPECT_EQ(isa::active(), isa::Level::kReference);
    }
    EXPECT_EQ(isa::active(), isa::Level::kGeneric);
  }
  EXPECT_EQ(isa::active(), best);
}

// Only constructs the scope: no kernel ever runs at a level the CPU lacks.
TEST(Isa, ScopedLevelRefusesALevelTheCpuLacks) {
  const std::vector<isa::Level>& levels = isa::supported_levels();
  std::size_t refused = 0;
  for (const isa::Level level : {isa::Level::kAvx2, isa::Level::kAvx512f}) {
    if (std::find(levels.begin(), levels.end(), level) != levels.end()) {
      continue;
    }
    EXPECT_THROW(isa::ScopedLevel scope(level), std::logic_error)
        << isa::to_string(level);
    EXPECT_EQ(isa::active(), levels.front());
    ++refused;
  }
  if (refused == 0) GTEST_SKIP() << "this CPU runs every level";
}

TEST(Isa, OverrideIsPerThread) {
  const isa::Level best = isa::active();
  isa::ScopedLevel scope(isa::Level::kReference);
  isa::Level seen = isa::Level::kReference;
  std::thread other([&seen] { seen = isa::active(); });
  other.join();
  EXPECT_EQ(seen, best);
  EXPECT_EQ(isa::active(), isa::Level::kReference);
}

// ---- cooperative cancellation ----------------------------------------------

TEST(Cancel, DefaultTokenIsInert) {
  util::CancelToken token;
  EXPECT_FALSE(token.valid());
  EXPECT_FALSE(token.cancelled());
  EXPECT_FALSE(token.timed_out());
  EXPECT_NO_THROW(token.check());
}

TEST(Cancel, ExplicitCancelFiresEveryToken) {
  util::CancelSource source;
  const util::CancelToken a = source.token();
  const util::CancelToken b = source.token();
  EXPECT_FALSE(a.cancelled());
  EXPECT_TRUE(source.cancel());    // first request
  EXPECT_FALSE(source.cancel());   // idempotent afterwards
  EXPECT_TRUE(a.cancelled());
  EXPECT_TRUE(b.cancelled());
  EXPECT_FALSE(a.timed_out());     // explicit cancel, not a deadline
  try {
    a.check();
    FAIL() << "expected CancelledError";
  } catch (const util::CancelledError& e) {
    EXPECT_FALSE(e.timed_out());
  }
}

TEST(Cancel, DeadlineExpiryReportsTimedOut) {
  util::CancelSource source;
  const util::CancelToken token = source.token();
  source.set_deadline_after(std::chrono::hours(1));
  EXPECT_FALSE(token.cancelled());  // far future: not yet
  source.set_deadline_after(std::chrono::nanoseconds(-1));
  EXPECT_TRUE(token.cancelled());
  EXPECT_TRUE(token.timed_out());
  try {
    token.check();
    FAIL() << "expected CancelledError";
  } catch (const util::CancelledError& e) {
    EXPECT_TRUE(e.timed_out());
  }
}

// ---- deterministic fault plans ----------------------------------------------

TEST(Fault, SameSeedReplaysIdenticalSchedule) {
  util::FaultSpec spec;
  spec.seed = 42;
  spec.eintr = 0.2;
  spec.short_op = 0.2;
  spec.reset = 0.1;
  spec.delay = 0.1;
  const util::FaultPlan a(spec);
  const util::FaultPlan b(spec);
  const auto sa = a.schedule_prefix(512);
  const auto sb = b.schedule_prefix(512);
  EXPECT_EQ(sa, sb);
  // The schedule is non-trivial: with these probabilities, 512 draws must
  // contain both faults and clean calls.
  EXPECT_TRUE(std::count(sa.begin(), sa.end(), util::FaultAction::kNone) > 0);
  EXPECT_TRUE(std::count(sa.begin(), sa.end(), util::FaultAction::kNone) <
              512);
  spec.seed = 43;
  const util::FaultPlan c(spec);
  EXPECT_NE(c.schedule_prefix(512), sa);
}

TEST(Fault, NextFollowsScheduleAndCountsCalls) {
  util::FaultSpec spec;
  spec.seed = 7;
  spec.eintr = 0.5;
  util::FaultPlan plan(spec);
  const auto schedule = plan.schedule_prefix(64);
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_EQ(plan.next(util::FaultSite::kRead), schedule[i]) << i;
  }
  EXPECT_EQ(plan.calls(), 64u);
}

TEST(Fault, ReadinessSitesOnlySeeEIntrAndDelay) {
  EXPECT_TRUE(util::fault_applicable(util::FaultSite::kRecv,
                                     util::FaultAction::kShortOp));
  EXPECT_TRUE(util::fault_applicable(util::FaultSite::kWrite,
                                     util::FaultAction::kReset));
  EXPECT_FALSE(util::fault_applicable(util::FaultSite::kAccept,
                                      util::FaultAction::kShortOp));
  EXPECT_FALSE(util::fault_applicable(util::FaultSite::kEpollWait,
                                      util::FaultAction::kReset));
  EXPECT_TRUE(util::fault_applicable(util::FaultSite::kConnect,
                                     util::FaultAction::kEIntr));
  EXPECT_TRUE(util::fault_applicable(util::FaultSite::kPoll,
                                     util::FaultAction::kDelay));

  // A short-op-only plan never injects at an accept site.
  util::FaultSpec spec;
  spec.seed = 3;
  spec.short_op = 1.0;
  util::FaultPlan plan(spec);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(plan.next(util::FaultSite::kAccept), util::FaultAction::kNone);
  }
  EXPECT_EQ(plan.faults_injected(), 0u);
}

TEST(Fault, BudgetBoundsInjectedFaults) {
  util::FaultSpec spec;
  spec.seed = 9;
  spec.eintr = 1.0;  // every call would fault...
  spec.max_faults = 5;  // ...but the budget stops after 5
  util::FaultPlan plan(spec);
  std::uint64_t injected = 0;
  for (int i = 0; i < 200; ++i) {
    if (plan.next(util::FaultSite::kRead) != util::FaultAction::kNone) {
      ++injected;
    }
  }
  EXPECT_EQ(injected, 5u);
  EXPECT_EQ(plan.faults_injected(), 5u);
}

// ---- crash-safe atomic writes ----------------------------------------------

std::string unique_tmp_file() {
  static std::atomic<int> counter{0};
  return "/tmp/metis_util_test_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1)) + ".txt";
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(AtomicFile, WritesAndOverwrites) {
  const std::string path = unique_tmp_file();
  EXPECT_TRUE(util::write_file_atomic(path, "first"));
  EXPECT_EQ(slurp(path), "first");
  EXPECT_TRUE(util::write_file_atomic(path, "second, longer content"));
  EXPECT_EQ(slurp(path), "second, longer content");
  std::remove(path.c_str());
}

TEST(AtomicFile, KillMidWriteNeverLeavesTornDestination) {
  const std::string path = unique_tmp_file();
  ASSERT_TRUE(util::write_file_atomic(path, "intact original artifact"));

  // Simulated crash after 4 bytes of the replacement: the destination
  // must still hold the complete original, bit for bit.
  util::AtomicWriteOptions crash;
  crash.fail_after_bytes = 4;
  EXPECT_FALSE(
      util::write_file_atomic(path, "replacement that never lands", crash));
  EXPECT_EQ(slurp(path), "intact original artifact");

  // Crash on a fresh path: no destination file may appear at all.
  const std::string fresh = unique_tmp_file();
  EXPECT_FALSE(util::write_file_atomic(fresh, "partial", crash));
  EXPECT_FALSE(std::ifstream(fresh).good());

  // And a later, uncrashed save publishes normally.
  EXPECT_TRUE(util::write_file_atomic(path, "replacement that lands"));
  EXPECT_EQ(slurp(path), "replacement that lands");
  std::remove(path.c_str());
}

// ---- CRC-32 artifact framing ------------------------------------------------

TEST(Checksum, Crc32MatchesKnownVector) {
  // The IEEE 802.3 reflected CRC-32 check value.
  EXPECT_EQ(util::crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(util::crc32(""), 0u);
}

TEST(Checksum, FrameRoundTripsArbitraryPayload) {
  const std::string payload = std::string("binary\0bytes\xff\n", 14);
  const std::string framed = util::wrap_crc_frame("tree k 7", payload);
  util::CrcFrame frame;
  ASSERT_EQ(util::parse_crc_frame(framed, &frame), util::FrameParse::kOk);
  EXPECT_EQ(frame.header, "tree k 7");
  EXPECT_EQ(frame.payload, payload);

  const std::string empty = util::wrap_crc_frame("params p 1", "");
  ASSERT_EQ(util::parse_crc_frame(empty, &frame), util::FrameParse::kOk);
  EXPECT_EQ(frame.payload, "");
}

TEST(Checksum, DamageIsDetectedNotTrusted) {
  const std::string framed = util::wrap_crc_frame("tree k 1", "the payload");
  util::CrcFrame frame;

  // Single flipped byte anywhere in the frame.
  for (std::size_t i = 0; i < framed.size(); ++i) {
    std::string bad = framed;
    bad[i] ^= 0x01;
    EXPECT_NE(util::parse_crc_frame(bad, &frame), util::FrameParse::kOk)
        << "flip at byte " << i;
  }
  // Truncation at every length.
  for (std::size_t n = 0; n < framed.size(); ++n) {
    EXPECT_NE(util::parse_crc_frame(framed.substr(0, n), &frame),
              util::FrameParse::kOk)
        << "truncated to " << n;
  }
  // Trailing garbage after a valid footer.
  EXPECT_EQ(util::parse_crc_frame(framed + "x", &frame),
            util::FrameParse::kCorrupt);
}

TEST(Checksum, UnframedBytesAreRejectedAsCorrupt) {
  util::CrcFrame frame;
  EXPECT_EQ(util::parse_crc_frame("metis-tree v1\nlegacy body\n", &frame),
            util::FrameParse::kCorrupt);
  EXPECT_EQ(util::parse_crc_frame("", &frame), util::FrameParse::kCorrupt);
}

TEST(Checksum, HeaderConstraintsEnforced) {
  EXPECT_THROW((void)util::wrap_crc_frame("", "x"), std::invalid_argument);
  EXPECT_THROW((void)util::wrap_crc_frame("two\nlines", "x"),
               std::invalid_argument);
  EXPECT_THROW((void)util::wrap_crc_frame("trailing ", "x"),
               std::invalid_argument);
}

}  // namespace
}  // namespace metis
