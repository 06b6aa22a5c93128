// Facade registrations for the Appendix-B hypergraph families:
//   "cluster"  — Spark-style DAG job scheduling (B.3)
//   "nfv"      — network-function placement (B.1)
//   "cellular" — ultra-dense cellular association (B.2)
//
// Each exposes its MaskableModel for the §4.2 critical-connection search
// only: has_local() is false, and a distill request gets the scenario's
// "does not support local-system distillation" error.
#pragma once

#include "metis/api/registry.h"

namespace metis::scenarios {

void register_cluster_scenario(api::ScenarioRegistry& registry);
void register_nfv_scenario(api::ScenarioRegistry& registry);
void register_cellular_scenario(api::ScenarioRegistry& registry);

}  // namespace metis::scenarios
