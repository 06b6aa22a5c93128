// Request/result value types shared by the two front doors of the
// library: the synchronous metis::Interpreter facade and the asynchronous
// metis::serve::Service. Kept separate from both so neither depends on
// the other's header.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "metis/api/scenario.h"

namespace metis::api {

// Sparse overrides applied on top of a scenario's DistillConfig defaults.
struct DistillOverrides {
  std::optional<std::size_t> episodes;           // collection episodes/round
  std::optional<std::size_t> max_steps;          // per-episode cap
  std::optional<std::size_t> dagger_iterations;
  std::optional<std::size_t> max_leaves;
  std::optional<bool> resample;                  // Eq. 1 on/off
  std::optional<std::uint64_t> seed;
  // Wall-clock budget measured from job submission; a job past it stops
  // at its next checkpoint and reports kTimedOut. Consumed by
  // serve::Service (not a core-config field: the deadline belongs to the
  // job, not the algorithm).
  std::optional<std::uint64_t> deadline_ms;
};

// Sparse overrides on top of a scenario's InterpretConfig defaults.
struct InterpretOverrides {
  std::optional<double> lambda1;
  std::optional<double> lambda2;
  std::optional<std::size_t> steps;
  std::optional<double> lr;
  std::optional<std::uint64_t> seed;
  // Same semantics as DistillOverrides::deadline_ms.
  std::optional<std::uint64_t> deadline_ms;
};

// A completed distillation: the tree plus everything needed to keep
// interrogating it (the live teacher/env pair and the exact config used).
struct DistillRun {
  std::string scenario;
  LocalSystem system;
  core::DistillConfig config;
  core::DistillResult result;
};

// A completed hypergraph interpretation.
struct InterpretRun {
  std::string scenario;
  GlobalSystem system;
  core::InterpretConfig config;
  core::InterpretResult result;
};

// Applies the set fields of an override bundle onto scenario defaults.
void apply_overrides(core::DistillConfig& cfg, const DistillOverrides& o);
void apply_overrides(core::InterpretConfig& cfg, const InterpretOverrides& o);

}  // namespace metis::api
