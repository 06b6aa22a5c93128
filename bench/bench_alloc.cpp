// Allocation-free inference path: lazy gradients + no-tape forwards +
// the per-thread tensor arena.
//
// Claim: the teacher-interpretation loop lives in small forward passes,
// and after the blocked GEMM the next bottleneck is allocator traffic —
// the seed allocated a fresh value AND a zeroed gradient tensor per
// autodiff node even for pure inference. With grads lazy, inference
// tape-free, and buffers recycled by nn::arena inside a Scope, a
// steady-state forward performs zero fresh tensor allocations (the
// collection loop's zero is ctest-enforced by tests/alloc_test.cpp).
//
// Run:  ./bench/bench_alloc
#include <chrono>
#include <cstring>
#include <iostream>
#include <memory>
#include <vector>

#include "bench_common.h"
#include "metis/nn/arena.h"
#include "metis/nn/autodiff.h"
#include "metis/nn/mlp.h"

int main() {
  using namespace metis;
  benchx::print_header(
      "bench_alloc",
      "tape vs no-tape vs no-tape+arena inference at Pensieve scale — "
      "results bitwise identical in every mode");

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

  std::cout << "\nforwards bitwise identical across modes: "
            << (forwards_identical ? "true" : "false") << "\n";

  benchx::JsonReport json("alloc");
  json.set("forward_modes",
           std::string("tape | no-tape | no-tape+arena"));
  json.set("forward_us", mode_us);
  json.set("forward_fresh_allocs_per_op", mode_allocs);
  json.set("identical", std::string(forwards_identical ? "true" : "false"));
  json.write();
  return forwards_identical ? 0 : 1;
}
