#include "metis/scenarios/register.h"

#include <memory>
#include <string>

#include "metis/scenarios/cellular.h"
#include "metis/scenarios/cluster.h"
#include "metis/scenarios/nfv.h"

namespace metis::scenarios {
namespace {

// Shared shape of the three Appendix-B scenarios: a maskable model built
// from options and Table-4 interpretation defaults. The paper only
// interprets these systems (§4, Appendix B); they offer no distillation,
// because a tree over their decision units would memorise a fixed table
// at 100% fidelity and explain nothing. make_local keeps the base
// class's "does not support local-system distillation" error.
class HypergraphScenario : public api::Scenario {
 public:
  bool has_local() const override { return false; }
  bool has_global() const override { return true; }

  api::GlobalSystem make_global(
      const api::ScenarioOptions& options) const override {
    api::GlobalSystem sys;
    sys.model = build_model(options);
    sys.keepalive = sys.model;
    sys.interpret_defaults.lambda1 = 0.25;
    sys.interpret_defaults.lambda2 = 1.0;
    sys.interpret_defaults.steps = 400;
    sys.interpret_defaults.seed = options.seed + 2;
    return sys;
  }

 protected:
  [[nodiscard]] virtual std::shared_ptr<core::MaskableModel> build_model(
      const api::ScenarioOptions& options) const = 0;
};

class ClusterScenario final : public HypergraphScenario {
 public:
  std::string key() const override { return "cluster"; }
  std::vector<std::string> aliases() const override { return {"dag"}; }
  std::string description() const override {
    return "Cluster DAG job scheduling (Appendix B.3): dependencies as "
           "hyperedges over job stages; the search surfaces the critical "
           "path steering the executor allocation";
  }

 protected:
  std::shared_ptr<core::MaskableModel> build_model(
      const api::ScenarioOptions& options) const override {
    const auto layers = api::scaled(4, options.scale, 3);
    const auto width = api::scaled(3, options.scale, 2);
    return std::make_shared<ClusterSchedulingModel>(
        random_job(layers, width, options.seed + 2026));
  }
};

class NfvScenario final : public HypergraphScenario {
 public:
  std::string key() const override { return "nfv"; }
  std::vector<std::string> aliases() const override { return {"placement"}; }
  std::string description() const override {
    return "NFV placement (Appendix B.1): NFs as hyperedges over servers; "
           "the search separates critical instances from redundant "
           "replicas";
  }

 protected:
  std::shared_ptr<core::MaskableModel> build_model(
      const api::ScenarioOptions& options) const override {
    // scale <= 1 keeps the paper's fixed Figure-21 instance; larger scales
    // grow a random deployment around the same structure.
    if (options.scale <= 1.0) {
      return std::make_shared<NfvPlacementModel>(figure21_nfv());
    }
    return std::make_shared<NfvPlacementModel>(
        random_nfv(api::scaled(4, options.scale, 4),
                   api::scaled(4, options.scale, 4), options.seed + 21));
  }
};

class CellularScenario final : public HypergraphScenario {
 public:
  std::string key() const override { return "cellular"; }
  std::vector<std::string> aliases() const override { return {"udn"}; }
  std::string description() const override {
    return "Ultra-dense cellular association (Appendix B.2): base-station "
           "coverage as hyperedges over users; the search finds the "
           "associations each user's traffic depends on";
  }

 protected:
  std::shared_ptr<core::MaskableModel> build_model(
      const api::ScenarioOptions& options) const override {
    return std::make_shared<CellularModel>(
        random_cellular(api::scaled(12, options.scale, 6),
                        api::scaled(5, options.scale, 3), /*radius=*/0.45,
                        options.seed + 22));
  }
};

}  // namespace

void register_cluster_scenario(api::ScenarioRegistry& registry) {
  registry.add(std::make_unique<ClusterScenario>());
}

void register_nfv_scenario(api::ScenarioRegistry& registry) {
  registry.add(std::make_unique<NfvScenario>());
}

void register_cellular_scenario(api::ScenarioRegistry& registry) {
  registry.add(std::make_unique<CellularScenario>());
}

}  // namespace metis::scenarios
