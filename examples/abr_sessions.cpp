// Many-session ABR load driver — the acceptance test for the network
// front-end and the seed of the "millions of users" demo.
//
// Opens hundreds of simulated ABR sessions against abr_server, multiplexed
// over a handful of connections (one thread each, queries PIPELINED: every
// live session's query goes out before any reply is read, so the server
// answers whole batches per epoll wake). Every decision the server returns
// is compared BITWISE against an in-process FlatTree evaluated on the same
// features — a single differing bit fails the run.
//
//   ./examples/abr_sessions --self-host                       # one process
//   ./examples/abr_sessions --socket /tmp/metis_abr.sock \
//       --tree metis_abr_tree.txt --sessions 256              # vs abr_server
#include <bit>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "metis/abr/env.h"
#include "metis/abr/trace_gen.h"
#include "metis/net/client.h"
#include "metis/serve/server.h"
#include "metis/tree/flat_tree.h"
#include "metis/tree/tree_io.h"

namespace {

// Same fast rule-fitted tree as abr_server's default mode (kept in sync by
// the self-host smoke test, which exercises exactly this builder).
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

struct DriveResult {
  std::uint64_t decisions = 0;
  std::uint64_t mismatches = 0;
  std::string error;
};

// One connection: `count` sessions starting at global index `first`,
// stepped in lockstep rounds with pipelined queries.
void drive_connection(const std::string& socket_path,
                      const metis::tree::FlatTree& flat,
                      const metis::abr::Video& video,
                      const std::vector<metis::abr::NetworkTrace>& corpus,
                      std::size_t first, std::size_t count,
                      DriveResult& out) {
  using namespace metis;
  try {
    net::Client client = net::Client::connect_unix(socket_path);

    struct Sim {
      std::unique_ptr<abr::AbrSession> session;
      std::uint64_t sid = 0;
      std::vector<double> features;  // in flight, awaiting the reply
    };
    std::vector<Sim> sims(count);
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t g = first + i;
      sims[i].session = std::make_unique<abr::AbrSession>(
          &video, &corpus[g % corpus.size()],
          /*start_offset_seconds=*/static_cast<double>((g * 37) % 1500));
      sims[i].sid = client.open_session("abr");
    }

    for (;;) {
      // Pipeline: one query per live session, no reads in between.
      std::size_t inflight = 0;
      for (std::size_t i = 0; i < count; ++i) {
        Sim& sim = sims[i];
        if (sim.session->done()) continue;
        sim.features = abr::tree_features(sim.session->observe());
        client.send_frame(
            net::QueryRequest{sim.sid, /*seq=*/i, sim.features}.encode());
        ++inflight;
      }
      if (inflight == 0) break;
      // Drain the replies; seq identifies the session.
      for (std::size_t r = 0; r < inflight; ++r) {
        const auto reply = net::DecisionReply::decode(client.read_frame());
        Sim& sim = sims[reply.seq];
        const double local = flat.predict(sim.features);
        ++out.decisions;
        if (std::bit_cast<std::uint64_t>(reply.decision) !=
            std::bit_cast<std::uint64_t>(local)) {
          ++out.mismatches;
        }
        auto level = static_cast<std::size_t>(local);
        if (level >= abr::kLevels) level = abr::kLevels - 1;
        sim.session->step(level);
      }
    }
  } catch (const std::exception& e) {
    out.error = e.what();
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace metis;

  std::string socket_path = "/tmp/metis_abr.sock";
  std::string tree_file;
  bool self_host = false;
  std::size_t sessions = 256;
  std::size_t connections = 8;
  std::size_t chunks = 48;
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
    else if (arg == "--tree") tree_file = next("--tree");
    else if (arg == "--self-host") self_host = true;
    else if (arg == "--sessions") sessions = std::stoul(next("--sessions"));
    else if (arg == "--connections")
      connections = std::stoul(next("--connections"));
    else if (arg == "--chunks") chunks = std::stoul(next("--chunks"));
    else {
      std::cerr << "usage: abr_sessions [--self-host | --socket PATH "
                   "--tree FILE]\n"
                   "                    [--sessions N] [--connections C] "
                   "[--chunks K]\n";
      return 2;
    }
  }
  if (connections == 0 || sessions == 0) {
    std::cerr << "--sessions and --connections must be positive\n";
    return 2;
  }
  if (connections > sessions) connections = sessions;

  // The in-process reference tree: self-host fits it, external mode loads
  // the file abr_server wrote. Either way the server's FlatTree and ours
  // compile from the identical DecisionTree text/structure.
  tree::DecisionTree dtree;
  std::optional<serve::Server> server;
  if (self_host) {
    dtree = fit_demo_tree(/*seed=*/7);
    socket_path = "/tmp/metis_abr_selfhost_" +
                  std::to_string(static_cast<unsigned>(::getpid())) + ".sock";
    serve::ServerConfig cfg;
    cfg.unix_path = socket_path;
    cfg.service.workers = 1;
    server.emplace(cfg);
    server->add_tree("abr", tree::FlatTree::compile(dtree));
    server->start();
  } else {
    if (tree_file.empty()) {
      std::cerr << "external mode needs --tree FILE (written by abr_server)\n";
      return 2;
    }
    try {
      // tree::load verifies the CRC frame (and rejects unframed files), so
      // a torn or corrupt artifact fails here, not mid-run.
      dtree = tree::load(tree_file);
    } catch (const std::exception& e) {
      std::cerr << "cannot load " << tree_file << ": " << e.what() << "\n";
      return 1;
    }
  }
  const tree::FlatTree flat = tree::FlatTree::compile(dtree);

  // Shared immutable world: one video, one trace per session (cycled).
  const abr::Video video(chunks, /*seed=*/11);
  const auto corpus = abr::generate_corpus(
      {.family = abr::TraceFamily::kHsdpa}, std::min<std::size_t>(sessions, 64),
      /*seed=*/12);

  std::cout << "driving " << sessions << " sessions over " << connections
            << " connections against " << socket_path << "\n";
  const auto t0 = std::chrono::steady_clock::now();

  std::vector<DriveResult> results(connections);
  std::vector<std::thread> threads;
  threads.reserve(connections);
  const std::size_t per = sessions / connections;
  const std::size_t extra = sessions % connections;
  std::size_t first = 0;
  for (std::size_t c = 0; c < connections; ++c) {
    const std::size_t count = per + (c < extra ? 1 : 0);
    threads.emplace_back(drive_connection, std::cref(socket_path),
                         std::cref(flat), std::cref(video), std::cref(corpus),
                         first, count, std::ref(results[c]));
    first += count;
  }
  for (auto& t : threads) t.join();
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  std::uint64_t decisions = 0, mismatches = 0;
  bool failed = false;
  for (std::size_t c = 0; c < results.size(); ++c) {
    decisions += results[c].decisions;
    mismatches += results[c].mismatches;
    if (!results[c].error.empty()) {
      std::cerr << "connection " << c << " failed: " << results[c].error
                << "\n";
      failed = true;
    }
  }

  if (server) server->stop();
  std::cout << decisions << " decisions, " << mismatches
            << " bitwise mismatches, " << secs << " s ("
            << static_cast<std::uint64_t>(decisions / std::max(secs, 1e-9))
            << " decisions/s)\n";
  if (failed || mismatches != 0 || decisions < sessions) {
    std::cout << "FAIL\n";
    return 1;
  }
  std::cout << "OK: every served decision bitwise-identical to in-process "
               "FlatTree\n";
  return 0;
}
