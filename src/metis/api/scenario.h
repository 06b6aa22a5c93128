// Public scenario abstraction of the Metis facade.
//
// The paper's claim is that one interpretation framework covers both
// "local" DL systems (per-decision policies such as Pensieve or AuTO,
// interpreted by DNN→decision-tree conversion, §3) and "global" systems
// (cross-decision optimizers such as RouteNet* or resource placers,
// interpreted by hypergraph critical-connection search, §4). A Scenario
// bundles everything Metis needs for one workload family behind a string
// key: how to build (and finetune) the teacher, how to roll out its
// environment, which interpretable features the student tree acts on, and
// sensible default DistillConfig / InterpretConfig settings.
//
// New workloads implement this interface and register with
// ScenarioRegistry — no changes to the pipeline, examples, or benches.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "metis/core/distill.h"
#include "metis/core/hypergraph_interpreter.h"
#include "metis/core/teacher.h"

namespace metis::api {

// Knobs shared by every scenario build.
struct ScenarioOptions {
  std::uint64_t seed = 1;
  // Relative teacher-training / workload budget. 1.0 is example grade
  // (seconds to ~a minute per scenario); tests use ~0.05 for smoke-scale
  // teachers; benches may raise it for paper-scale runs.
  double scale = 1.0;
};

// A built local system: the finetuned teacher, its rollout environment,
// and the distillation defaults (feature names included). `keepalive`
// owns whatever backing objects (agents, simulators, corpora) the teacher
// and env point into.
struct LocalSystem {
  std::shared_ptr<core::Teacher> teacher;
  std::shared_ptr<core::RolloutEnv> env;
  core::DistillConfig distill_defaults;
  std::shared_ptr<void> keepalive;
};

// A built global system: the maskable decision model over the scenario's
// hypergraph plus Figure-6 optimization defaults.
struct GlobalSystem {
  std::shared_ptr<core::MaskableModel> model;
  core::InterpretConfig interpret_defaults;
  std::shared_ptr<void> keepalive;
};

class Scenario {
 public:
  virtual ~Scenario() = default;

  // Primary registry key, e.g. "abr" or "routing".
  [[nodiscard]] virtual std::string key() const = 0;
  // Alternate lookup keys, e.g. {"pensieve"}.
  [[nodiscard]] virtual std::vector<std::string> aliases() const {
    return {};
  }
  [[nodiscard]] virtual std::string description() const = 0;

  // Which interpretation surfaces the scenario supports. abr and
  // flowsched distill only; routing, cluster, nfv and cellular expose
  // their hypergraph only.
  [[nodiscard]] virtual bool has_local() const { return true; }
  [[nodiscard]] virtual bool has_global() const { return false; }

  // Builds (and trains, at the requested budget) the scenario's systems.
  // The defaults throw std::logic_error for unsupported surfaces.
  [[nodiscard]] virtual LocalSystem make_local(
      const ScenarioOptions& options) const;
  [[nodiscard]] virtual GlobalSystem make_global(
      const ScenarioOptions& options) const;
};

// Scaling helper: `base * scale`, floored at `floor` so smoke budgets stay
// functional (at least one episode, a few epochs, ...).
[[nodiscard]] std::size_t scaled(std::size_t base, double scale,
                                 std::size_t floor = 1);

}  // namespace metis::api
