// Facade registration for the RouteNet* routing family (§5, §6.5).
//
// make_global trains the link-delay model, routes a traffic matrix in
// closed loop, and exposes the (path, link) hypergraph mask model for the
// §4.2 search. The paper never distils RouteNet, and a tree over its
// demands would memorise the decision table by demand index, so the
// scenario offers interpretation only (has_local() is false). Registered
// under "routing" (alias "routenet").
#pragma once

#include <memory>

#include "metis/api/registry.h"
#include "metis/routing/routenet.h"
#include "metis/routing/traffic.h"

namespace metis::routing {

// Backing objects of the built systems (see GlobalSystem::keepalive):
// §6.5-style walkthroughs need the topology, traffic matrix, and routing
// result to score ad-hoc rerouting decisions against the mask.
struct RoutingScenarioContext {
  Topology topo{nsfnet()};
  RouteNetConfig cfg;
  std::unique_ptr<RouteNetStar> model;
  TrafficMatrix tm;
  std::shared_ptr<RoutingMaskModel> mask_model;
};

// Downcasts a GlobalSystem built by the "routing" scenario.
[[nodiscard]] std::shared_ptr<RoutingScenarioContext> routing_context(
    const api::GlobalSystem& system);

void register_routing_scenario(api::ScenarioRegistry& registry);

}  // namespace metis::routing
