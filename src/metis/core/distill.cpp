#include "metis/core/distill.h"

#include <utility>

#include "metis/util/check.h"

namespace metis::core {
namespace {

// Fraction of rows where the tree predicts the label, the teacher's action.
double fidelity_on(const tree::DecisionTree& tree, const tree::Dataset& data) {
  MET_CHECK(data.size() > 0);
  std::size_t hit = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (static_cast<std::size_t>(tree.predict(data.x[i])) ==
        static_cast<std::size_t>(data.y[i])) {
      ++hit;
    }
  }
  return static_cast<double>(hit) / static_cast<double>(data.size());
}

// Appends one round's samples to the job's dataset, moving their features.
void append(tree::Dataset& data, std::vector<CollectedSample> round) {
  for (CollectedSample& s : round) {
    data.add(std::move(s.features), static_cast<double>(s.action), s.weight);
  }
}

tree::DecisionTree fit_and_prune(const tree::Dataset& data,
                                 const DistillConfig& cfg) {
  tree::DecisionTree t = tree::DecisionTree::fit(data, cfg.fit);
  if (t.leaf_count() > cfg.max_leaves) {
    tree::prune_to_leaf_count(t, cfg.max_leaves);
  }
  return t;
}

}  // namespace

DistillResult distill_policy(const Teacher& teacher, RolloutEnv& env,
                             const DistillConfig& cfg) {
  MET_CHECK(cfg.dagger_iterations >= 1);
  metis::Rng rng(cfg.seed);

  // Eq.-1 weights enter the fits only when the resampling step is on;
  // with it off the ablation sees a genuinely uniform dataset.
  CollectConfig collect = cfg.collect;
  collect.weight_by_advantage = cfg.resample;
  collect.cancel = cfg.cancel;  // episode-level checkpoints inside rounds

  // The job's one dataset: every round is appended to it, and each fit
  // sees every sample collected so far (DAgger's aggregation). fit()
  // validates it and refuses it empty.
  tree::Dataset data;
  data.feature_names = cfg.feature_names;

  // Round 0: pure teacher trajectories.
  append(data, collect_traces(teacher, env, collect, nullptr, 0));
  if (cfg.on_round_done) cfg.on_round_done();

  tree::DecisionTree student = fit_and_prune(data, cfg);

  // DAgger rounds: the student drives (with teacher takeover), every
  // visited state gets a teacher label, the dataset is aggregated, and the
  // student is refit.
  for (std::size_t iter = 1; iter < cfg.dagger_iterations; ++iter) {
    cfg.cancel.check();  // round boundary
    StudentPolicy policy = [&student](std::span<const double> features) {
      return static_cast<std::size_t>(student.predict(features));
    };
    auto round = collect_traces(teacher, env, collect, &policy,
                                iter * cfg.collect.episodes);
    if (cfg.on_round_done) cfg.on_round_done();
    append(data, std::move(round));
    student = fit_and_prune(data, cfg);
  }

  // Final fit. With resampling on, the Eq.-1 probabilities act as CART
  // sample weights — the deterministic, variance-free equivalent of the
  // multinomial draw in [7] (resample_by_weight implements the literal
  // procedure; cfg.resample_size > 0 opts into it). Fidelity is measured
  // on the collected rows either way.
  cfg.cancel.check();  // last boundary before the final fit
  const bool draw = cfg.resample && cfg.resample_size > 0;
  DistillResult result;
  if (draw) {
    result.train_data = resample_by_weight(data, cfg.resample_size, rng);
  }
  result.tree = fit_and_prune(draw ? result.train_data : data, cfg);
  result.samples_collected = data.size();
  result.fidelity = fidelity_on(result.tree, data);
  if (!draw) result.train_data = std::move(data);
  return result;
}

tree::DecisionTree refit_with_oversampling(
    const DistillResult& result, const std::vector<std::size_t>& classes,
    double target_freq, const DistillConfig& cfg) {
  tree::Dataset data = result.train_data;
  // The paper oversamples the (uniformly) resampled dataset; with Eq.-1
  // sample weights in play the equivalent is to give the duplicates the
  // dataset's mean weight — they exist to teach the starved class's
  // boundary, not to multiply the advantage mass of a few rare states.
  double mean_weight = 1.0;
  if (!data.weight.empty()) {
    double sum = 0.0;
    for (double w : data.weight) sum += w;
    mean_weight = sum / static_cast<double>(data.weight.size());
  }
  for (std::size_t cls : classes) {
    const auto freqs = data.class_frequencies();
    MET_CHECK(cls < freqs.size());
    if (freqs[cls] <= 0.0) continue;  // class never seen: nothing to copy
    data = data.oversample_class(cls, target_freq, mean_weight);
  }
  return fit_and_prune(data, cfg);
}

}  // namespace metis::core
