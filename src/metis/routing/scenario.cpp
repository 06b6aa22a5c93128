#include "metis/routing/scenario.h"

#include <string>
#include <utility>

#include "metis/util/check.h"

namespace metis::routing {
namespace {

std::shared_ptr<RoutingScenarioContext> build_context(
    const api::ScenarioOptions& options) {
  auto ctx = std::make_shared<RoutingScenarioContext>();
  ctx->cfg.seed = options.seed + 16;
  ctx->model = std::make_unique<RouteNetStar>(&ctx->topo, ctx->cfg);
  ctx->model->train(api::scaled(1024, options.scale, 128),
                    api::scaled(300, options.scale, 60));

  TrafficGenConfig tcfg;
  tcfg.intensity = 0.6;
  ctx->tm = generate_traffic(ctx->topo, tcfg, options.seed + 41);
  ctx->mask_model = std::make_shared<RoutingMaskModel>(
      ctx->model.get(), ctx->model->route(ctx->tm));
  return ctx;
}

class RoutingScenario final : public api::Scenario {
 public:
  std::string key() const override { return "routing"; }
  std::vector<std::string> aliases() const override { return {"routenet"}; }
  std::string description() const override {
    return "DL-based routing: RouteNet*-style closed-loop optimizer on "
           "NSFNet, interpreted over the (path, link) hypergraph";
  }
  // Interpretation only; make_local keeps the base class's "does not
  // support local-system distillation" error.
  bool has_local() const override { return false; }
  bool has_global() const override { return true; }

  api::GlobalSystem make_global(
      const api::ScenarioOptions& options) const override {
    auto ctx = build_context(options);
    api::GlobalSystem sys;
    // Aliasing pointer: the model is owned by (and keeps alive) the whole
    // context, which the RoutingMaskModel points into.
    sys.model = std::shared_ptr<core::MaskableModel>(ctx, ctx->mask_model.get());
    sys.keepalive = ctx;
    sys.interpret_defaults.lambda1 = 0.25;  // Table 4's RouteNet* values
    sys.interpret_defaults.lambda2 = 1.0;
    sys.interpret_defaults.steps = 250;
    sys.interpret_defaults.seed = options.seed + 2;
    return sys;
  }
};

}  // namespace

std::shared_ptr<RoutingScenarioContext> routing_context(
    const api::GlobalSystem& system) {
  MET_CHECK_MSG(system.keepalive != nullptr,
                "global system has no backing context");
  return std::static_pointer_cast<RoutingScenarioContext>(system.keepalive);
}

void register_routing_scenario(api::ScenarioRegistry& registry) {
  registry.add(std::make_unique<RoutingScenario>());
}

}  // namespace metis::routing
