// Network-facing ABR decision server — the Fig. 16 deployment shape.
//
// Fits (or distills) a decision tree for the ABR scenario, registers its
// FlatTree under the name "abr", and serves query-plane decisions over a
// Unix-domain socket (and optionally loopback TCP) until SIGINT/SIGTERM.
// The fitted tree is also written out in tree::serialize form so the load
// driver (abr_sessions) can check every served decision bitwise against
// an in-process FlatTree built from the same file.
//
//   ./examples/abr_server                          # fast rule-fitted tree
//   ./examples/abr_server --distill --scale 0.2    # real §3.2 distillation
//   ./examples/abr_sessions --socket /tmp/metis_abr.sock \
//       --tree metis_abr_tree.txt --sessions 256   # then, from elsewhere
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>

#include "metis/abr/env.h"
#include "metis/abr/trace_gen.h"
#include "metis/serve/server.h"
#include "metis/tree/flat_tree.h"
#include "metis/tree/tree_io.h"

namespace {

std::atomic<bool> g_stop{false};
void on_signal(int) { g_stop.store(true); }

// Demo-grade tree, fitted in milliseconds: runs a rate-based rule policy
// over simulated sessions and fits CART on the resulting (tree-feature,
// level) pairs. The tree is as deployable as a distilled one — the load
// demo only needs *a* FlatTree whose decisions it can replicate bitwise.
metis::tree::DecisionTree fit_demo_tree(std::uint64_t seed) {
  using namespace metis;
  const abr::Video video(60, seed);
  const auto corpus = abr::generate_corpus({.family = abr::TraceFamily::kHsdpa},
                                           24, seed + 1);
  const auto& ladder = abr::bitrate_ladder_kbps();

  tree::Dataset data;
  data.feature_names = abr::tree_feature_names();
  for (const auto& trace : corpus) {
    abr::AbrSession session(&video, &trace, 0.0);
    while (!session.done()) {
      const auto features = abr::tree_features(session.observe());
      // Rate-based rule: highest sustainable level under the harmonic-mean
      // throughput estimate, conservative while the buffer is shallow.
      const double budget_kbps =
          features[4] * 1000.0 * (features[5] > 10.0 ? 0.9 : 0.6);
      std::size_t level = 0;
      for (std::size_t l = 0; l < ladder.size(); ++l) {
        if (ladder[l] <= budget_kbps) level = l;
      }
      data.add(features, static_cast<double>(level));
      session.step(level);
    }
  }
  return tree::DecisionTree::fit(
      data, {.task = tree::Task::kClassification, .max_depth = 8,
             .min_samples_leaf = 5});
}

}  // namespace

int main(int argc, char** argv) {
  using namespace metis;

  std::string socket_path = "/tmp/metis_abr.sock";
  std::string tree_out = "metis_abr_tree.txt";
  std::string store_dir;
  bool use_tcp = false;
  std::uint16_t tcp_port = 0;
  bool distill = false;
  double scale = 0.2;
  std::size_t workers = 2;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) {
      if (i + 1 >= argc) {
        std::cerr << flag << " needs a value\n";
        std::exit(2);
      }
      return std::string(argv[++i]);
    };
    if (arg == "--socket") socket_path = next("--socket");
    else if (arg == "--tree-out") tree_out = next("--tree-out");
    else if (arg == "--tcp") { use_tcp = true;
      tcp_port = static_cast<std::uint16_t>(std::stoi(next("--tcp"))); }
    else if (arg == "--distill") distill = true;
    else if (arg == "--scale") scale = std::stod(next("--scale"));
    else if (arg == "--workers") workers = std::stoul(next("--workers"));
    else if (arg == "--store-dir") store_dir = next("--store-dir");
    else {
      std::cerr << "usage: abr_server [--socket PATH] [--tree-out FILE]\n"
                   "                  [--tcp PORT] [--distill] [--scale S]\n"
                   "                  [--workers N] [--store-dir DIR]\n";
      return 2;
    }
  }

  serve::ServerConfig cfg;
  cfg.unix_path = socket_path;
  cfg.tcp = use_tcp;
  cfg.tcp_port = tcp_port;
  cfg.service.workers = workers;
  cfg.service.options.scale = scale;
  // Distilled trees hot-swap into the query plane automatically: each
  // distill job's worker add_tree()s its tree under the scenario key as
  // the job completes — no caller-side wiring.
  cfg.auto_deploy_distilled = true;
  // With --store-dir, the server opens (and crash-recovers) a versioned
  // snapshot store there: previously published trees warm-boot into the
  // query plane before the listeners bind, and every auto-deployed
  // distill result is made durable before it becomes visible.
  cfg.store_dir = store_dir;
  serve::Server server(cfg);

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  // Started before the tree exists: queries for "abr" get a clean
  // unknown-tree error until the distill job deploys it.
  server.start();

  if (distill) {
    // The real §3.2 conversion, through the server's own control plane.
    std::cout << "distilling abr scenario (scale " << scale << ")...\n";
    auto job = server.service().submit_distill("abr");
    job.wait();
    if (job.status() != serve::JobStatus::kDone) {
      std::cerr << "distill failed: " << job.error() << "\n";
      return 1;
    }
    const tree::DecisionTree& dtree = job.distill_run().result.tree;
    std::cout << "tree ready: " << dtree.leaf_count() << " leaves\n";
    tree::save(dtree, tree_out);  // crash-safe: old file or new, never torn
    // A finished job is already deployed — unless the store refused it.
    if (!server.has_tree("abr")) {
      std::cerr << "the snapshot store rejected the tree; not serving it\n";
      return 1;
    }
  } else {
    const tree::DecisionTree dtree = fit_demo_tree(/*seed=*/7);
    std::cout << "tree ready: " << dtree.leaf_count() << " leaves\n";
    tree::save(dtree, tree_out);
    std::uint64_t version = 0;
    if (auto* store = server.snapshot_store()) {
      // Durable before visible, same as the auto-deploy path.
      version = store->publish_tree("abr", dtree);
    }
    server.add_tree("abr", tree::FlatTree::compile(dtree), version);
  }
  if (auto* store = server.snapshot_store()) {
    std::cout << "snapshot store at " << store->dir() << " (recovered "
              << store->recovery().keys_recovered << " keys, quarantined "
              << store->recovery().quarantined << ")\n";
  }

  std::cout << "serving tree \"abr\" on " << socket_path;
  if (use_tcp) std::cout << " and 127.0.0.1:" << server.tcp_port();
  std::cout << "\ntree written to " << tree_out << " — Ctrl-C to stop\n";

  while (!g_stop.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }
  server.stop();
  const auto stats = server.stats();
  std::cout << "served " << stats.decisions_served << " decisions across "
            << stats.sessions_opened << " sessions ("
            << stats.connections_accepted << " connections)\n";
  return 0;
}
