// Episode-sharded trace collection.
//
// Claim: the K episodes of a collection round are independent, so cutting
// the round into one lockstep block per worker scales collection with
// cores, on top of the block batching every step's policy/value queries
// into ONE trunk forward (Teacher::act_and_values_multi). The sweep also
// crosses the GEMM backend. All modes produce a bitwise-identical dataset.
//
// Run:  ./bench/bench_parallel_collection [--threads N]
//       (N = top of the shard sweep; default = hardware threads, min 4)
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "bench_common.h"
#include "metis/core/teacher.h"
#include "metis/core/trace_collector.h"
#include "metis/nn/gemm.h"

namespace {

using namespace metis;

double collect_seconds(const core::Teacher& teacher, core::RolloutEnv& env,
                       const core::CollectConfig& cc,
                       std::vector<core::CollectedSample>* out) {
  const auto t0 = std::chrono::steady_clock::now();
  auto samples = core::collect_traces(teacher, env, cc, nullptr, 0);
  const auto t1 = std::chrono::steady_clock::now();
  if (out) *out = std::move(samples);
  return std::chrono::duration<double>(t1 - t0).count();
}

bool identical(const std::vector<core::CollectedSample>& a,
               const std::vector<core::CollectedSample>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].action != b[i].action || a[i].weight != b[i].weight ||
        a[i].features != b[i].features) {
      return false;
    }
  }
  return true;
}

struct Mode {
  std::size_t workers;
  nn::gemm::Backend backend;
  std::string label;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace metis;
  benchx::print_header(
      "bench_parallel_collection",
      "collection at Pensieve scale across worker counts and GEMM "
      "backends; dataset bitwise identical in every mode");

  // Paper-scale Pensieve teacher dimensions (25-dim state, 6 bitrates).
  // Untrained weights — collection cost does not depend on weight values.
  abr::Video video(48, 7);
  abr::TraceGenConfig tcfg;
  tcfg.family = abr::TraceFamily::kHsdpa;
  tcfg.duration_seconds = 1000.0;
  abr::AbrEnv env(video, abr::generate_corpus(tcfg, 20, 100));
  metis::Rng rng(3);
  nn::PolicyNet net(abr::kStateDim, 128, 2, 6, rng);
  core::PolicyNetTeacher teacher(&net);
  abr::AbrRolloutEnv rollout(&env);

  core::CollectConfig cc;
  cc.episodes = 20;
  cc.max_steps = 60;

  // Warm-up (page in code + touch the corpus), then best-of-3 per mode.
  (void)collect_seconds(teacher, rollout, cc, nullptr);

  constexpr int kReps = 3;
  constexpr auto kNaive = nn::gemm::Backend::kNaive;
  constexpr auto kBlocked = nn::gemm::Backend::kBlocked;

  // Shard sweep top: --threads N, defaulting to the machine's real
  // parallelism (min 4 so the sweep exists even on tiny containers).
  const unsigned hw = std::thread::hardware_concurrency();
  std::size_t max_threads = std::max(4u, hw);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      max_threads = std::max<std::size_t>(1, std::stoul(argv[++i]));
    }
  }
  std::vector<std::size_t> sweep;  // 2, 4, 8, ... up to and incl. the top
  for (std::size_t w = 2; w < max_threads; w *= 2) sweep.push_back(w);
  if (max_threads > 1) sweep.push_back(max_threads);

  std::vector<Mode> modes = {{1, kNaive, "one block (naive gemm)"}};
  for (std::size_t w : sweep) {
    modes.push_back({w, kNaive, "sharded x" + std::to_string(w)});
  }
  modes.push_back({1, kBlocked, "one block + blocked gemm"});
  for (std::size_t w : sweep) {
    modes.push_back(
        {w, kBlocked, "sharded x" + std::to_string(w) + " + blocked gemm"});
  }
  std::vector<core::CollectedSample> reference;
  std::vector<double> best_seconds(modes.size(), 1e100);
  bool all_identical = true;
  for (std::size_t m = 0; m < modes.size(); ++m) {
    cc.parallel.workers = modes[m].workers;
    nn::gemm::BackendScope backend(modes[m].backend);
    for (int r = 0; r < kReps; ++r) {
      std::vector<core::CollectedSample> samples;
      const double s = collect_seconds(teacher, rollout, cc,
                                       r == 0 ? &samples : nullptr);
      best_seconds[m] = std::min(best_seconds[m], s);
      if (r == 0) {
        if (m == 0) {
          reference = std::move(samples);
        } else {
          all_identical = all_identical && identical(reference, samples);
        }
      }
    }
  }
  if (!all_identical) {
    std::cout << "ERROR: collection diverged across modes\n";
    return EXIT_FAILURE;
  }

  Table table({"mode", "workers", "best wall-clock (ms)", "speedup"});
  std::vector<double> speedups;
  for (std::size_t m = 0; m < modes.size(); ++m) {
    speedups.push_back(best_seconds[0] / best_seconds[m]);
    table.add_row({modes[m].label, std::to_string(modes[m].workers),
                   Table::num(best_seconds[m] * 1e3),
                   Table::num(speedups.back()) + "x"});
  }
  table.print(std::cout);
  std::cout << "\nsamples/round: " << reference.size()
            << "  (datasets bitwise identical in every mode; " << hw
            << " hardware threads)\n";

  benchx::JsonReport json("parallel_collection");
  json.set("episodes", cc.episodes);
  json.set("max_steps", cc.max_steps);
  json.set("samples", reference.size());
  {
    std::vector<double> workers, blocked, ms;
    for (const Mode& m : modes) {
      workers.push_back(static_cast<double>(m.workers));
      blocked.push_back(m.backend == kBlocked ? 1.0 : 0.0);
    }
    for (double s : best_seconds) ms.push_back(s * 1e3);
    json.set("workers", workers);
    json.set("blocked_gemm", blocked);
    json.set("best_ms", ms);
  }
  json.set("speedups", speedups);
  json.set("threads_sweep_top", max_threads);
  json.set("hardware_threads", static_cast<std::size_t>(hw));
  json.set("identical", std::string("true"));
  json.write();
  return 0;
}
