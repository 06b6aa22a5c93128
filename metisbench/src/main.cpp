// metisbench — the Metis benchmark binary.
//
//   metisbench --workload decide|distill|interpret --seed N --seconds S
//              --trace 0|1 --workdir DIR [--tiny]
//
// --trace 0 measures the end-to-end metrics; --trace 1 is the separate
// traced pass that reports the per-layer metrics (see README.md for the
// metric -> layer -> workload map). The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// The binary refuses to report (exit code 3, no result) from a build
// without NDEBUG or with METIS_GEMM_BACKEND, METIS_TENSOR_ARENA,
// METIS_NODE_POOL or METIS_LOCK_GRAPH set: those measure another program.
#include <sched.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/vfs.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "metis/util/lock_graph.h"
#include "metis/util/rng.h"

namespace metisbench {
namespace {

// Length of one round of the three phases (see run()).
constexpr double kRoundSeconds = 2.5;

struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

Options parse(int argc, char** argv) {
  Options opt;
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--tiny") {
      opt.tiny = true;
    } else if (key.rfind("--", 0) == 0 && i + 1 < argc) {
      args[key.substr(2)] = argv[++i];
    } else {
      throw UsageError("unexpected argument " + key);
    }
  }
  for (const char* required : {"workload", "seed", "seconds", "trace"}) {
    if (!args.count(required)) {
      throw UsageError(std::string("missing --") + required);
    }
  }
  opt.workload = args["workload"];
  opt.seed = std::stoull(args["seed"]);
  opt.seconds = std::stod(args["seconds"]);
  opt.trace = args["trace"] == "1";
  opt.workdir = args.count("workdir") ? args["workdir"] : ".bench_build/run";
  if (opt.seconds <= 0.0) throw UsageError("--seconds must be positive");
  return opt;
}

// Time shares per workload: each layer does most of its work in one.
Mix mix_for(const std::string& workload) {
  if (workload == "decide") return {0.8, 0.1, 0.1};
  if (workload == "distill") return {0.2, 0.7, 0.1};
  if (workload == "interpret") return {0.2, 0.1, 0.7};
  throw UsageError("unknown workload '" + workload +
                   "' (decide, distill, interpret)");
}

// Reasons the numbers would not describe the shipped program.
std::vector<std::string> invalid_build() {
  std::vector<std::string> out;
#ifndef NDEBUG
  out.push_back("built without NDEBUG");
#endif
  if (METIS_LOCK_GRAPH_AVAILABLE) {
    out.push_back("lock-order sanitizer compiled in");
  }
  for (const char* var : {"METIS_GEMM_BACKEND", "METIS_TENSOR_ARENA",
                          "METIS_NODE_POOL", "METIS_LOCK_GRAPH"}) {
    if (std::getenv(var) != nullptr) out.push_back(std::string(var) + " set");
  }
  return out;
}

// ---- the machine ------------------------------------------------------------

volatile double g_spin_sink = 0.0;

void spin_work() {
  double x = 1.0;
  for (int i = 0; i < 20'000'000; ++i) x = x * 1.0000001 + 1e-9;
  g_spin_sink = x;
}

// Parallelism the machine delivers: N CPU-bound threads against one,
// N = the CPUs this process may use. Median of three trials.
double calibrate_parallelism(std::size_t cpus) {
  std::vector<double> trials;
  for (int t = 0; t < 3; ++t) {
    auto t0 = Clock::now();
    spin_work();
    const double one = since_s(t0);
    t0 = Clock::now();
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < cpus; ++i) threads.emplace_back(spin_work);
    for (auto& th : threads) th.join();
    trials.push_back(static_cast<double>(cpus) * one / since_s(t0));
  }
  return median(trials);
}

// A probe of the machine, not of Metis: a dependent walk over one random
// cycle through 8 MiB. Its time per load follows the memory-system
// contention the shared machine is under, which moves every timed metric.
class MemoryLatencyProbe {
 public:
  MemoryLatencyProbe() : next_(2u << 20) {
    // Sattolo's shuffle of the identity: a single cycle through all slots.
    for (std::uint32_t i = 0; i < next_.size(); ++i) next_[i] = i;
    metis::Rng rng(0x6d656d);
    for (std::size_t i = next_.size() - 1; i > 0; --i) {
      std::swap(next_[i], next_[rng.uniform_int(i)]);
    }
  }
  [[nodiscard]] double ns_per_load() {
    constexpr std::size_t kLoads = 200'000;
    std::uint32_t at = 0;
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < kLoads; ++i) at = next_[at];
    const double ns = since_s(t0) * 1e9 / static_cast<double>(kLoads);
    sink_ = at;
    return ns;
  }

 private:
  std::vector<std::uint32_t> next_;
  volatile std::uint32_t sink_ = 0;
};

std::string filesystem_of(const std::string& dir) {
  struct statfs fs {};
  if (statfs(dir.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    default: {
      std::ostringstream s;
      s << "0x" << std::hex << fs.f_type;
      return s.str();
    }
  }
}

double peak_rss_mb() {
  rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

void append(std::vector<double>& to, const std::vector<double>& from) {
  to.insert(to.end(), from.begin(), from.end());
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_metrics(const std::map<std::string, Metric>& metrics) {
  std::string out = "{";
  for (const auto& [name, m] : metrics) {
    if (out.size() > 1) out += ", ";
    out += "\"" + name + "\": {\"value\": " + json_number(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  return out + "}";
}

// ---- one run ----------------------------------------------------------------

int run(const Options& opt) {
  const Mix mix = mix_for(opt.workload);
  if (const auto bad = invalid_build(); !bad.empty()) {
    for (const auto& why : bad) {
      std::cerr << "metisbench: refusing to report: " << why << "\n";
    }
    return 3;
  }

  // The environment, recorded with every result. Parallelism is measured
  // over the allowed CPUs; then the process pins itself to the last of
  // them, so the server loop, the Service worker and the client threads
  // share one CPU however many the machine delivers that day.
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  sched_getaffinity(0, sizeof allowed, &allowed);
  const std::size_t cpus = static_cast<std::size_t>(CPU_COUNT(&allowed));
  const double parallelism = calibrate_parallelism(cpus);
  int pinned = 0;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) pinned = c;
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(pinned, &one);
  if (sched_setaffinity(0, sizeof one, &one) != 0) {
    throw std::runtime_error("cannot pin to a CPU");
  }
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);  // precise open-loop sleeps
  // Keeps the pinned CPU from halting between queries: a SCHED_IDLE
  // thread runs only when nothing else on the CPU can, and wake-ups
  // preempt it at once, so timers and socket wake-ups never pay the
  // virtual CPU's halt exit.
  std::atomic<bool> stop_spinner{false};
  std::thread spinner([&] {
    sched_param param{};
    pthread_setschedparam(pthread_self(), SCHED_IDLE, &param);
    while (!stop_spinner.load(std::memory_order_relaxed)) {
    }
  });
  struct JoinSpinner {
    std::atomic<bool>& stop;
    std::thread& thread;
    ~JoinSpinner() {
      stop.store(true);
      thread.join();
    }
  } join_spinner{stop_spinner, spinner};

  const std::string dir =
      opt.workdir + "/" + std::to_string(static_cast<long>(getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  Context ctx;
  ctx.opt = opt;
  ctx.socket_path = dir + "/q.sock";
  ctx.store_dir = dir + "/store";

  std::cout << "env: {\"workload\": \"" << opt.workload
            << "\", \"seed\": " << opt.seed << ", \"seconds\": "
            << opt.seconds << ", \"trace\": " << opt.trace
            << ", \"build_type\": \"" << METISBENCH_BUILD_TYPE
            << "\", \"compiler\": \"" << METISBENCH_COMPILER
            << "\", \"cpus_allowed\": " << cpus
            << ", \"parallelism\": " << json_number(parallelism)
            << ", \"pinned_cpu\": " << pinned << ", \"store_fs\": \""
            << filesystem_of(dir) << "\"}\n";

  Tracer tracer(Clock::now());
  Tracer* const traced = opt.trace ? &tracer : nullptr;
  ctx.tracer = traced;
  MemoryLatencyProbe probe;
  std::vector<double> memory_ns;  // one probe per round
  std::vector<double> setup_s{setup(ctx)};
  make_query_rows(ctx);
  const auto stats0 = ctx.server->stats();

  // The run is cut into rounds of about kRoundSeconds, and every round runs
  // the three phases at the workload's shares, so slow drifts in what the
  // machine delivers reach every metric alike. A side server is set up
  // after each round, spreading the set-up samples over the run too. In
  // the traced pass the workload's own phase is untraced in even rounds
  // and traced in odd ones; the difference is the tracing overhead.
  const std::size_t rounds = static_cast<std::size_t>(std::max<long>(
      opt.trace ? 2 : 1, std::lround(opt.seconds / kRoundSeconds)));
  const double rs = opt.seconds / static_cast<double>(rounds);
  QueryResult q;
  DistillResult d;
  InterpretResult in;
  std::vector<double> primary[2];  // [traced] the workload's own samples
  // Medians per round. The machine flips between a fast and a slow state
  // every few seconds, about 1.5x apart; the mean over rounds of each
  // round's median moves in proportion to the time spent in each state,
  // where a median pooled over the run jumps from one state to the other.
  std::map<std::string, std::vector<double>> round_p50;
  auto add_round = [&](const char* name, const std::vector<double>& xs) {
    if (!xs.empty()) round_p50[name].push_back(median(xs));
  };
  for (std::size_t r = 0; r < rounds; ++r) {
    const bool primary_traced = opt.trace && r % 2 == 1;
    auto phase_tracer = [&](const char* workload) {
      return opt.workload == workload && !primary_traced ? nullptr : traced;
    };
    ctx.tracer = phase_tracer("decide");
    QueryResult qr = run_query_phase(ctx, rs * mix.query * 2.0 / 3.0,
                                     rs * mix.query / 3.0);
    ctx.tracer = phase_tracer("distill");
    DistillResult dr = run_distill_phase(ctx, rs * mix.distill);
    ctx.tracer = phase_tracer("interpret");
    InterpretResult ir = run_interpret_phase(ctx, rs * mix.interpret);
    ctx.tracer = traced;
    setup_s.push_back(side_setup(ctx));

    append(primary[primary_traced], opt.workload == "decide" ? qr.latency_us
                                    : opt.workload == "distill"
                                        ? dr.job_s
                                        : ir.job_ms);
    append(q.latency_us, qr.latency_us);
    append(q.lag_us, qr.lag_us);
    q.pipelined_decisions += qr.pipelined_decisions;
    q.pipelined_s += qr.pipelined_s;
    append(d.job_s, dr.job_s);
    append(d.first_decision_s, dr.first_decision_s);
    append(d.deploy_wait_s, dr.deploy_wait_s);
    append(d.queue_wait_s, dr.queue_wait_s);
    append(d.latency_us, dr.latency_us);
    append(d.lag_us, dr.lag_us);
    append(in.job_ms, ir.job_ms);
    add_round("decision", qr.latency_us);
    add_round("distill", dr.job_s);
    add_round("first", dr.first_decision_s);
    add_round("interpret", ir.job_ms);
    memory_ns.push_back(probe.ns_per_load());
    std::printf("round %zu: decision p50 %.2f us, decisions/s %.0f, distill "
                "job p50 %.4f s, first decision p50 %.4f s, interpret job "
                "p50 %.2f ms, set-up %.4f s, memory latency %.1f ns\n",
                r, percentile(qr.latency_us, 0.5),
                qr.pipelined_decisions / qr.pipelined_s, median(dr.job_s),
                median(dr.first_decision_s), median(ir.job_ms),
                setup_s.back(), memory_ns.back());
  }
  std::printf("machine: memory latency %.2f ns per load (mean over rounds)\n",
              mean(memory_ns));
  const auto stats1 = ctx.server->stats();

  // Every distinct job again through the layer functions.
  const DistillStages ds = replay_distill(ctx);
  const InterpretStages is = replay_interpret(ctx);

  // ---- end-to-end metrics ----------------------------------------------------
  Report e2e;
  e2e.set("setup_s", median(setup_s), "s", setup_s.size());
  e2e.set("decision_p50_us", mean(round_p50["decision"]), "us",
          q.latency_us.size());
  e2e.set("decisions_per_s", q.pipelined_decisions / q.pipelined_s, "1/s",
          static_cast<std::size_t>(q.pipelined_decisions));
  e2e.set("distill_job_p50_s", mean(round_p50["distill"]), "s",
          d.job_s.size());
  e2e.set("distill_first_decision_p50_s", mean(round_p50["first"]), "s",
          d.first_decision_s.size());
  // Mean fidelity over the distinct job variants (repeats are identical).
  std::vector<double> fidelity(kDistillVariants, -1.0);
  for (const DistillJob& j : ctx.distill_jobs) fidelity[j.variant] = j.fidelity;
  std::erase(fidelity, -1.0);
  e2e.set("distill_fidelity", mean(fidelity), "ratio", fidelity.size());
  e2e.set("interpret_job_p50_ms", mean(round_p50["interpret"]), "ms",
          in.job_ms.size());

  // ---- per-layer metrics (traced pass) ----------------------------------------
  Report layers;
  if (opt.trace) {
    time_layers(ctx, layers);
    layers.set("machine.parallelism", parallelism, "cores", 3);
    layers.set("machine.cpus_allowed", static_cast<double>(cpus), "count");
    layers.set("machine.memory_latency_ns", mean(memory_ns), "ns",
               memory_ns.size());
    layers.set("harness.trace_overhead_pct",
               100.0 * (median(primary[1]) / median(primary[0]) - 1.0), "%",
               primary[1].size());
    layers.set("harness.generator_lag_us", median(q.lag_us), "us",
               q.lag_us.size());
    // The decision tail is reported here, without a bound: on a shared
    // virtual machine whole runs shift it by 30% and more (host stalls make
    // every due query late), far past any bound an end-to-end metric may
    // carry.
    layers.set("decision_p99_us", percentile(q.latency_us, 0.99), "us",
               q.latency_us.size());
    layers.set("net.transport_us",
               percentile(q.latency_us, 0.50) -
                   layers.metrics().at("serve.inproc_decision_us").value,
               "us", q.latency_us.size());
    // The query stream that runs beside distill jobs: what job CPU,
    // publishes and tree swaps cost the query plane.
    layers.set("serve.beside_jobs_p50_us", percentile(d.latency_us, 0.50),
               "us", d.latency_us.size());
    layers.set("serve.beside_jobs_p99_us", percentile(d.latency_us, 0.99),
               "us", d.latency_us.size());
    layers.set("serve.decisions_served",
               static_cast<double>(stats1.decisions_served -
                                   stats0.decisions_served),
               "count");
    layers.set("serve.error_replies",
               static_cast<double>(stats1.error_replies - stats0.error_replies),
               "count");
    layers.set("serve.busy_replies",
               static_cast<double>(stats1.busy_replies - stats0.busy_replies),
               "count");
    layers.set("serve.queue_wait_ms", median(d.queue_wait_s) * 1e3, "ms",
               d.queue_wait_s.size());
    layers.set("serve.deploy_wait_ms", median(d.deploy_wait_s) * 1e3, "ms",
               d.deploy_wait_s.size());
    layers.set("core.collect_round_ms", median(ds.collect_round_ms), "ms",
               ds.collect_round_ms.size());
    layers.set("core.samples_collected", median(ds.samples), "count",
               ds.samples.size());
    layers.set("tree.fit_ms", median(ds.fit_ms), "ms", ds.fit_ms.size());
    layers.set("tree.prune_ms", median(ds.prune_ms), "ms", ds.prune_ms.size());
    layers.set("tree.compile_us", median(ds.compile_us), "us",
               ds.compile_us.size());
    layers.set("store.publish_ms", median(ds.publish_ms), "ms",
               ds.publish_ms.size());
    layers.set("nn.arena_fresh_allocs", median(ds.arena_fresh), "count",
               ds.arena_fresh.size());
    layers.set("harness.stage_sum_ratio", median(ds.stage_sum_ratio), "ratio",
               ds.stage_sum_ratio.size());
    layers.set("core.model_clone_us", median(is.model_clone_us), "us",
               is.model_clone_us.size());
    layers.set("core.mask_step_us", median(is.mask_step_us), "us",
               is.mask_step_us.size());
    layers.set("nn.node_fresh_allocs", median(is.node_fresh), "count",
               is.node_fresh.size());
    std::printf("decision round trip p50 %.3f us = in-process %.3f us "
                "(encode, decode, predict, reply) + transport %.3f us\n",
                percentile(q.latency_us, 0.50),
                layers.metrics().at("serve.inproc_decision_us").value,
                layers.metrics().at("net.transport_us").value);
    tracer.write_jsonl(opt.workdir + "/spans-" + opt.workload + ".jsonl");
  }
  e2e.set("peak_rss_mb", peak_rss_mb(), "MB");
  teardown(ctx);
  std::filesystem::remove_all(dir);

  // ---- report ------------------------------------------------------------------
  const std::uint64_t attempted = std::max<std::uint64_t>(1, ctx.ledger.attempted());
  const std::uint64_t failed = ctx.ledger.failed();
  const double fail_ratio =
      static_cast<double>(failed) / static_cast<double>(attempted);
  const bool checks_ran =
      ctx.checks.decisions_compared > 0 && ctx.checks.trees_compared > 0 &&
      ctx.checks.rankings_compared > 0 &&
      (!opt.trace || ctx.checks.stage_sums_checked > 0);
  bool finite = true;
  for (const Report* r : {&e2e, &layers}) {
    for (const auto& [name, m] : r->metrics()) {
      if (!std::isfinite(m.value)) {
        std::cout << "error: metric " << name << " has no value\n";
        finite = false;
      }
    }
  }
  std::printf("%-34s %18s  %-6s %s\n", "metric", "value", "unit", "samples");
  for (const Report* r : {&e2e, &layers}) {
    for (const auto& [name, m] : r->metrics()) {
      std::printf("%-34s %18.6f  %-6s %zu\n", name.c_str(), m.value,
                  m.unit.c_str(), m.samples);
    }
  }
  std::printf("%-34s %18.6f  %-6s %llu\n", "fail_ratio", fail_ratio, "ratio",
              static_cast<unsigned long long>(attempted));
  std::cout << "checks: {\"decisions_compared\": "
            << ctx.checks.decisions_compared
            << ", \"trees_compared\": " << ctx.checks.trees_compared
            << ", \"rankings_compared\": " << ctx.checks.rankings_compared
            << ", \"stage_sums_checked\": " << ctx.checks.stage_sums_checked
            << "}\n";
  if (opt.trace) {
    std::cout << "trace: " << tracer.size() << " spans, self time per span:\n";
    for (const auto& [name, t] : tracer.totals()) {
      std::printf("  %-28s %8zu x  total %10.3f ms  self %10.3f ms\n",
                  name.c_str(), t.count, t.total_s * 1e3, t.self_s * 1e3);
    }
  }
  for (const auto& why : ctx.ledger.first_failures()) {
    std::cout << "failure: " << why << "\n";
  }
  const bool correct = failed == 0 && checks_ran && finite;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": "
            << json_metrics(opt.trace ? layers.metrics() : e2e.metrics())
            << "}" << std::endl;
  return 0;
}

}  // namespace
}  // namespace metisbench

int main(int argc, char** argv) {
  try {
    return metisbench::run(metisbench::parse(argc, argv));
  } catch (const metisbench::UsageError& e) {
    std::cerr << "metisbench: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "metisbench: run failed: " << e.what() << "\n";
    return 1;
  }
}
