#include "metis/flowsched/scenario.h"

#include <algorithm>
#include <string>
#include <utility>

#include "metis/api/mimic.h"
#include "metis/core/teacher.h"
#include "metis/flowsched/flow_gen.h"
#include "metis/util/check.h"

namespace metis::flowsched {
namespace {

class FlowschedScenario final : public api::Scenario {
 public:
  std::string key() const override { return "flowsched"; }
  std::vector<std::string> aliases() const override {
    return {"auto", "lrla"};
  }
  std::string description() const override {
    return "Datacenter flow scheduling: AuTO's lRLA long-flow priority "
           "agent on the fabric simulator, distilled by replaying its "
           "per-flow decisions";
  }

  api::LocalSystem make_local(
      const api::ScenarioOptions& options) const override {
    const double scale = options.scale;

    auto ctx = std::make_shared<FlowschedScenarioContext>();
    FlowGenConfig gen;
    gen.family = WorkloadFamily::kDataMining;
    gen.load = 0.45;
    gen.duration_s = std::max(0.05, 0.35 * scale);
    ctx->workloads = {generate_workload(gen, options.seed + 50),
                      generate_workload(gen, options.seed + 51)};

    ctx->agent = std::make_unique<LrlaAgent>(ctx->fabric.mlfq.queue_count(),
                                             options.seed + 7);
    CemConfig cem;
    cem.iterations = api::scaled(5, scale, 1);
    cem.population = api::scaled(10, scale, 4);
    // Small scales floor the population at 4; keep the elite set legal.
    cem.elites = std::min(cem.elites, cem.population - 1);
    ctx->agent->train(ctx->workloads, ctx->fabric, cem);

    // Decision points: replay the trained teacher over its workloads; each
    // long flow's feature vector at decision time is one state.
    LrlaScheduler sched(
        [agent = ctx->agent.get()](const Flow& f, double sent) {
          return agent->priority_for(f, sent);
        },
        kTreeTrainLatency);
    FabricSim sim(ctx->fabric);
    for (const auto& wl : ctx->workloads) (void)sim.run(wl, &sched);
    MET_CHECK_MSG(!sched.decisions().empty(),
                  "flowsched scenario produced no long-flow decisions");

    std::vector<std::vector<double>> states;
    states.reserve(sched.decisions().size());
    for (const auto& d : sched.decisions()) states.push_back(d.features);
    const std::size_t state_count = states.size();

    api::LocalSystem sys;
    sys.teacher = std::make_shared<core::PolicyNetTeacher>(&ctx->agent->net());
    auto features = states;  // replay view == interpretable view
    sys.env = std::make_shared<api::ReplayRolloutEnv>(
        std::move(states), std::move(features),
        ctx->agent->net().action_count());
    sys.keepalive = ctx;

    sys.distill_defaults.feature_names = {"log_size", "log_sent",
                                          "frac_sent"};
    sys.distill_defaults.collect.episodes = 2;
    sys.distill_defaults.collect.max_steps = state_count;
    sys.distill_defaults.dagger_iterations = 1;
    sys.distill_defaults.max_leaves = 200;
    sys.distill_defaults.fit.min_samples_leaf = 2;
    sys.distill_defaults.seed = options.seed;
    return sys;
  }
};

}  // namespace

std::shared_ptr<FlowschedScenarioContext> flowsched_context(
    const api::LocalSystem& system) {
  MET_CHECK_MSG(system.keepalive != nullptr,
                "local system has no backing context");
  return std::static_pointer_cast<FlowschedScenarioContext>(system.keepalive);
}

void register_flowsched_scenario(api::ScenarioRegistry& registry) {
  registry.add(std::make_unique<FlowschedScenario>());
}

}  // namespace metis::flowsched
