// Figure 9: (a) the distribution of mask values across 50 interpretation
// runs — polarized at 0/1 with few median values; (b) the per-link sum of
// mask values Σ_e W_ve correlates with the link's traffic (the paper
// reports Pearson r = 0.81).
#include <iostream>

#include "bench_common.h"

using namespace metis;

int main() {
  benchx::print_header(
      "Figure 9 — mask distribution and correlation with link traffic",
      "expected: bimodal mask CDF; Pearson r around 0.8 (paper: 0.81)");

  const std::size_t kSamples = 50;  // the paper's 50 traffic samples
  // Near-saturation traffic and a sharper decision softmax: the
  // correlation between per-link mask mass and traffic (Fig. 9b) is a
  // congestion effect — on a lightly loaded network the queueing curve is
  // flat and no connection is critical.
  auto scenario = benchx::make_routenet(kSamples, /*intensity=*/0.95,
                                        /*seed=*/11, /*softmax_beta=*/2.0);

  std::vector<double> all_masks;
  std::vector<double> mask_sums;   // per (sample, link)
  std::vector<double> link_traffic;

  core::InterpretConfig icfg;
  icfg.lambda2 = 1.5;  // keep the CDF bimodal at the higher intensity
  icfg.steps = 300;
  for (std::size_t i = 0; i < scenario.traffic.size(); ++i) {
    const auto& tm = scenario.traffic[i];
    auto result = scenario.model->route(tm);
    routing::RoutingMaskModel mask_model(scenario.model.get(), result);
    icfg.seed = 3 + i;
    auto interp = core::find_critical_connections(mask_model, icfg);
    for (double m : interp.mask_values()) all_masks.push_back(m);
    const auto loads =
        routing::link_loads(scenario.topo, tm, result.routes());
    for (std::size_t v = 0; v < scenario.topo.link_count(); ++v) {
      if (loads[v] <= 0.0) continue;  // unused links carry no connections
      mask_sums.push_back(interp.vertex_mask_sum(v));
      link_traffic.push_back(loads[v]);
    }
  }

  std::cout << "(a) mask value CDF over " << all_masks.size()
            << " connections / " << kSamples << " runs:\n";
  Table cdf_table({"mask value <=", "CDF"});
  for (double x : {0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95,
                   1.0}) {
    cdf_table.add_row({Table::num(x, 2),
                       Table::pct(metis::fraction_below(all_masks, x), 1)});
  }
  cdf_table.print(std::cout);
  const double mid_band = metis::fraction_below(all_masks, 0.8) -
                          metis::fraction_below(all_masks, 0.2);
  std::cout << "fraction in the median band (0.2, 0.8]: "
            << Table::pct(mid_band, 1)
            << "  (paper: few median values)\n\n";

  const double r = metis::pearson(mask_sums, link_traffic);
  std::cout << "(b) Pearson correlation of per-link mask sum vs link "
               "traffic over "
            << mask_sums.size() << " (run, link) points: r = "
            << Table::num(r, 2) << "   (paper: r = 0.81)\n";
  return 0;
}
