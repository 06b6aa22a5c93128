// The benchmark's run context and its phases.
//
// One run is one process. It sets up a serve::Server (store + auto-deploy,
// one Service worker), talks to it over two unix-socket connections, and
// runs three phases whose time shares depend on the workload:
//   query     — open-loop decisions at a fixed rate, then pipelined ones;
//   distill   — one ABR distill job at a time beside a low-rate query
//               stream, each tree published and hot-swapped;
//   interpret — one routing/cluster interpret job at a time.
// Afterwards every distinct job is replayed through the layer functions
// and compared with what the server returned.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "harness.h"
#include "metis/net/client.h"
#include "metis/serve/server.h"
#include "metis/tree/flat_tree.h"

namespace metisbench {

struct Options {
  std::string workload;  // decide | distill | interpret
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;     // self-check size: fewer repetitions and jobs
  std::string workdir;   // working directory for the store and the socket
};

// Share of the run's seconds each phase gets.
struct Mix {
  double query = 0.0;
  double distill = 0.0;
  double interpret = 0.0;
};

// Build scale of every scenario the server builds (teacher training
// budget; 0.25 keeps the ABR teacher build near 0.2 s).
inline constexpr double kScale = 0.25;
// Distill jobs per variant cycle and interpret variants per cycle.
inline constexpr std::size_t kDistillVariants = 4;
inline constexpr std::size_t kInterpretVariants = 4;

struct DistillJob {
  std::uint64_t id = 0;
  std::size_t variant = 0;
  std::string tree_text;  // tree::serialize of the served tree
  double fidelity = 0.0;
  double wall_s = 0.0;    // submit -> done
};

struct InterpretJob {
  std::uint64_t id = 0;
  std::size_t variant = 0;
  std::vector<std::uint32_t> edges;
  std::vector<std::uint32_t> vertices;
  std::vector<double> masks;
};

struct Context {
  Options opt;
  Ledger ledger;
  Checks checks;
  Tracer* tracer = nullptr;  // non-null while a traced segment runs

  std::string socket_path;
  std::string store_dir;
  std::unique_ptr<metis::serve::Server> server;
  std::optional<metis::net::Client> control;  // connection A
  std::optional<metis::net::Client> stream;   // connection B
  std::vector<std::uint64_t> sessions_a;      // on the deployed tree
  std::vector<std::uint64_t> sessions_b;
  std::uint64_t setup_job = 0;
  std::shared_ptr<const metis::tree::FlatTree> deployed;  // the setup tree
  std::vector<std::vector<double>> rows;  // query features from rollouts
  std::vector<double> expected;           // deployed->predict(rows[i])

  std::vector<DistillJob> distill_jobs;
  std::vector<InterpretJob> interpret_jobs;
  std::uint64_t next_seq = 1;
};

// ---- setup (phases.cpp) -----------------------------------------------------

// Starts the server, builds every scenario the run uses through warm-up
// jobs, deploys the setup ABR tree and opens the sessions. Returns the
// set-up seconds. Stages are traced when ctx.tracer is set.
double setup(Context& ctx);
void teardown(Context& ctx);
// One set-up and teardown of a second server beside ctx's (its own
// socket and store); returns the set-up seconds.
double side_setup(const Context& ctx);
// Query rows from ABR rollouts under the run's seed, driven by the
// deployed tree; fills ctx.rows/ctx.expected (untimed).
void make_query_rows(Context& ctx);

// ---- phases (phases.cpp) ----------------------------------------------------

struct QueryResult {
  std::vector<double> latency_us;  // from each query's due time
  std::vector<double> lag_us;      // generator lateness
  double pipelined_decisions = 0.0;
  double pipelined_s = 0.0;
};
QueryResult run_query_phase(Context& ctx, double open_s, double pipelined_s);

struct DistillResult {
  std::vector<double> job_s;          // submit -> done
  std::vector<double> first_decision_s;  // submit -> first decision of it
  std::vector<double> deploy_wait_s;  // done -> visible in list_trees
  std::vector<double> queue_wait_s;   // submit -> running (traced only)
  std::vector<double> latency_us;     // query stream beside the jobs
  std::vector<double> lag_us;
};
// Runs jobs until `seconds` pass, at least one. Variants cycle across
// calls (ctx.distill_jobs counts them).
DistillResult run_distill_phase(Context& ctx, double seconds);

struct InterpretResult {
  std::vector<double> job_ms;
};
InterpretResult run_interpret_phase(Context& ctx, double seconds);

// ---- replays and layer timings (replay.cpp) ---------------------------------

struct DistillStages {
  std::vector<double> collect_round_ms;
  std::vector<double> samples;         // per job
  std::vector<double> fit_ms;          // per job, to_dataset included
  std::vector<double> prune_ms;        // per job
  std::vector<double> compile_us;      // per job
  std::vector<double> publish_ms;      // per job
  std::vector<double> arena_fresh;     // per job
  std::vector<double> stage_sum_ratio; // replay stages / served wall time
};
// Replays the first job of every distill variant stage by stage and
// compares each served tree of that variant byte for byte.
DistillStages replay_distill(Context& ctx);

struct InterpretStages {
  std::vector<double> model_clone_us;
  std::vector<double> mask_step_us;
  std::vector<double> node_fresh;
};
// Replays the first job of every interpret variant and compares each
// served ranking of that variant bit for bit.
InterpretStages replay_interpret(Context& ctx);

// Per-call timings of the layer functions on this run's shapes (traced
// runs only); fills `report` with the per-layer metrics they define.
void time_layers(Context& ctx, Report& report);

}  // namespace metisbench
