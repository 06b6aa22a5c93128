// Allocation-free inference path: lazy gradients + no-tape forwards +
// the per-thread tensor arena.
//
// Claim: the teacher-interpretation loop lives in small forward passes,
// and after the blocked GEMM the next bottleneck is allocator traffic —
// the seed allocated a fresh value AND a zeroed gradient tensor per
// autodiff node even for pure inference. With grads lazy, inference
// tape-free, and buffers recycled by nn::arena, the steady-state
// collection loop performs zero fresh tensor allocations (ctest-enforced
// by tests/alloc_test.cpp) and collection gets measurably faster.
//
// Run:  ./bench/bench_alloc
#include <chrono>
#include <cstring>
#include <iostream>
#include <memory>
#include <vector>

#include "bench_common.h"
#include "metis/core/teacher.h"
#include "metis/core/trace_collector.h"
#include "metis/nn/arena.h"
#include "metis/nn/autodiff.h"
#include "metis/nn/mlp.h"

namespace {

using namespace metis;

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

}  // namespace

int main() {
  using namespace metis;
  benchx::print_header(
      "bench_alloc",
      "tape vs no-tape vs no-tape+arena inference at Pensieve scale, plus "
      "a collection round with the arena off/on — results bitwise "
      "identical in every mode");

  metis::Rng rng(3);
  nn::PolicyNet net(abr::kStateDim, 128, 2, 6, rng);

  // One Eq. 1 batch: the acting state plus one successor per action.
  std::vector<std::vector<double>> batch(7,
                                         std::vector<double>(abr::kStateDim));
  metis::Rng data_rng(4);
  for (auto& row : batch) {
    for (auto& v : row) v = data_rng.uniform(-1.0, 1.0);
  }

  // ---- forward micro-benchmark: tape vs no-tape vs no-tape + arena ----------
  constexpr int kIters = 5000;
  struct ForwardMode {
    const char* label;
    bool no_tape;
    bool arena;
  };
  const std::vector<ForwardMode> modes = {
      {"tape forward (graph built)", false, false},
      {"no-tape (NoGradGuard)", true, false},
      {"no-tape + arena scope", true, true},
  };

  Table fwd_table({"forward mode", "us/op", "fresh tensor allocs/op"});
  std::vector<double> mode_us, mode_allocs;
  nn::Tensor reference;
  bool forwards_identical = true;
  for (const ForwardMode& mode : modes) {
    std::unique_ptr<nn::arena::Scope> scope;
    if (mode.arena) scope = std::make_unique<nn::arena::Scope>();
    std::unique_ptr<nn::NoGradGuard> guard;
    if (mode.no_tape) guard = std::make_unique<nn::NoGradGuard>();
    // Warm-up (populates the arena pool in arena mode).
    {
      nn::Var warm = nn::softmax_rows(
          net.logits(nn::constant(nn::Tensor::from_rows(batch))));
      if (reference.empty()) {
        reference = warm->value();
      } else {
        forwards_identical =
            forwards_identical &&
            std::memcmp(reference.data().data(), warm->value().data().data(),
                        reference.size() * sizeof(double)) == 0;
      }
    }
    const nn::arena::Stats s0 = nn::arena::stats();
    const auto t0 = std::chrono::steady_clock::now();
    double sink = 0.0;
    for (int i = 0; i < kIters; ++i) {
      nn::Var p = nn::softmax_rows(
          net.logits(nn::constant(nn::Tensor::from_rows(batch))));
      sink += p->value()(0, 0);
    }
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    const nn::arena::Stats s1 = nn::arena::stats();
    if (sink == 0.123456789) std::cout << "";  // keep the loop observable
    const double us = elapsed / kIters * 1e6;
    const double allocs =
        static_cast<double>(s1.fresh_allocs - s0.fresh_allocs) / kIters;
    mode_us.push_back(us);
    mode_allocs.push_back(allocs);
    fwd_table.add_row({mode.label, Table::num(us), Table::num(allocs)});
  }
  fwd_table.print(std::cout);

  // ---- collection round: arena off vs on ------------------------------------
  abr::Video video(48, 7);
  abr::TraceGenConfig tcfg;
  tcfg.family = abr::TraceFamily::kHsdpa;
  tcfg.duration_seconds = 1000.0;
  abr::AbrEnv env(video, abr::generate_corpus(tcfg, 20, 100));
  core::PolicyNetTeacher teacher(&net);
  abr::AbrRolloutEnv rollout(&env);
  core::CollectConfig cc;
  cc.episodes = 20;
  cc.max_steps = 60;

  auto run_round = [&](bool arena_on, std::vector<core::CollectedSample>* out,
                       std::uint64_t* fresh, std::uint64_t* fresh_bytes) {
    nn::arena::set_enabled(arena_on);
    (void)core::collect_traces(teacher, rollout, cc, nullptr, 0);  // warm-up
    constexpr int kReps = 5;
    double best = 1e100;
    for (int r = 0; r < kReps; ++r) {
      const nn::arena::Stats s0 = nn::arena::stats();
      const auto t0 = std::chrono::steady_clock::now();
      auto samples = core::collect_traces(teacher, rollout, cc, nullptr, 0);
      const double s =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      const nn::arena::Stats s1 = nn::arena::stats();
      if (r == 0) {
        if (out) *out = std::move(samples);
        if (fresh) *fresh = s1.fresh_allocs - s0.fresh_allocs;
        if (fresh_bytes) *fresh_bytes = s1.bytes_fresh - s0.bytes_fresh;
      }
      best = std::min(best, s);
    }
    nn::arena::set_enabled(true);
    return best;
  };

  std::vector<core::CollectedSample> off_samples, on_samples;
  std::uint64_t off_fresh = 0, on_fresh = 0;
  std::uint64_t off_bytes = 0, on_bytes = 0;
  const double off_s = run_round(false, &off_samples, &off_fresh, &off_bytes);
  const double on_s = run_round(true, &on_samples, &on_fresh, &on_bytes);
  const bool datasets_identical = identical(off_samples, on_samples);

  Table col_table(
      {"collection round", "best wall-clock (ms)", "fresh tensor allocs"});
  col_table.add_row({"arena off", Table::num(off_s * 1e3),
                     std::to_string(off_fresh)});
  col_table.add_row({"arena on", Table::num(on_s * 1e3),
                     std::to_string(on_fresh)});
  col_table.print(std::cout);
  std::cout << "\nforwards bitwise identical across modes: "
            << (forwards_identical ? "true" : "false")
            << "\ndatasets bitwise identical (arena off vs on): "
            << (datasets_identical ? "true" : "false")
            << "\ncollection speedup (arena on vs off): "
            << Table::num(off_s / on_s) << "x\n";

  benchx::JsonReport json("alloc");
  json.set("forward_modes",
           std::string("tape | no-tape | no-tape+arena"));
  json.set("forward_us", mode_us);
  json.set("forward_fresh_allocs_per_op", mode_allocs);
  json.set("collection_episodes", cc.episodes);
  json.set("collection_max_steps", cc.max_steps);
  json.set("collection_ms_arena_off", off_s * 1e3);
  json.set("collection_ms_arena_on", on_s * 1e3);
  json.set("collection_speedup", off_s / on_s);
  json.set("collection_fresh_allocs_arena_off",
           static_cast<std::size_t>(off_fresh));
  json.set("collection_fresh_allocs_arena_on",
           static_cast<std::size_t>(on_fresh));
  json.set("collection_fresh_bytes_arena_off",
           static_cast<std::size_t>(off_bytes));
  json.set("collection_fresh_bytes_arena_on",
           static_cast<std::size_t>(on_bytes));
  json.set("identical",
           std::string((forwards_identical && datasets_identical) ? "true"
                                                                  : "false"));
  json.write();
  return (forwards_identical && datasets_identical) ? 0 : 1;
}
