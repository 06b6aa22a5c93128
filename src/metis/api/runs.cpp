#include "metis/api/runs.h"

namespace metis::api {

void apply_overrides(core::DistillConfig& cfg, const DistillOverrides& o) {
  if (o.episodes) cfg.collect.episodes = *o.episodes;
  if (o.max_steps) cfg.collect.max_steps = *o.max_steps;
  if (o.dagger_iterations) cfg.dagger_iterations = *o.dagger_iterations;
  if (o.max_leaves) cfg.max_leaves = *o.max_leaves;
  if (o.resample) cfg.resample = *o.resample;
  if (o.seed) cfg.seed = *o.seed;
}

void apply_overrides(core::InterpretConfig& cfg, const InterpretOverrides& o) {
  if (o.lambda1) cfg.lambda1 = *o.lambda1;
  if (o.lambda2) cfg.lambda2 = *o.lambda2;
  if (o.steps) cfg.steps = *o.steps;
  if (o.lr) cfg.lr = *o.lr;
  if (o.seed) cfg.seed = *o.seed;
}

}  // namespace metis::api
