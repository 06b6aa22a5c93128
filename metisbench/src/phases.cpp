#include <bit>
#include <filesystem>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "metis/tree/tree_io.h"
#include "metis/util/rng.h"

namespace metisbench {
namespace {

using metis::net::Client;
using metis::net::DecisionReply;
using metis::net::Frame;
using metis::net::MsgType;
using metis::net::QueryRequest;
using metis::serve::JobHandle;
using metis::serve::JobStatus;

constexpr std::size_t kSessionsPerConnection = 8;
// Offered rate of the decide open-loop phase and of the query stream that
// runs beside distill jobs.
constexpr double kOpenLoopRate = 5000.0;
constexpr double kStreamRate = 1000.0;
// Queries in flight per connection in the pipelined phase.
constexpr std::size_t kPipelineWindow = 32;

// Distill job variant k: 64 episodes x 3 rounds, pruned to a seeded leaf
// budget in [28 + 4k, 31 + 4k], so every run covers the same job sizes
// while its trees depend on the seed. (ABR episodes are fixed by the
// scenario build; the job seed only matters to sampled resampling, which
// these jobs do not use, but it is passed as a client would.)
metis::api::DistillOverrides distill_variant(const Options& opt,
                                             std::size_t k) {
  metis::Rng rng = metis::Rng::derive(opt.seed, 0xd157 + k);
  metis::api::DistillOverrides o;
  o.episodes = opt.tiny ? 16 : 64;
  o.dagger_iterations = opt.tiny ? 2 : 3;
  o.max_leaves = 28 + 4 * k + rng.uniform_int(4);
  o.seed = rng.next_u64();
  return o;
}

// Interpret variant k: routing for k < 3, cluster for k == 3 (routing
// dominates the median), each with its own seeded mask initialization.
std::string interpret_scenario(std::size_t k) {
  return k + 1 < kInterpretVariants ? "routing" : "cluster";
}
metis::api::InterpretOverrides interpret_variant(const Options& opt,
                                                 std::size_t k) {
  metis::api::InterpretOverrides o;
  o.seed = metis::Rng::derive(opt.seed, 0x1e7 + k).next_u64();
  if (opt.tiny) o.steps = 20;
  return o;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

void sleep_until(Clock::time_point t) {
  if (t > Clock::now()) std::this_thread::sleep_until(t);
}

// Reads one kDecision reply and checks it answers (session, seq).
double read_decision(Client& client, std::uint64_t session,
                     std::uint64_t seq) {
  const Frame reply = client.read_frame();
  if (reply.type != MsgType::kDecision) {
    throw std::runtime_error(std::string("reply ") +
                             metis::net::to_string(reply.type));
  }
  const DecisionReply d = DecisionReply::decode(reply);
  if (d.session != session || d.seq != seq) {
    throw std::runtime_error("reply for another query");
  }
  return d.decision;
}

// One checked round trip: a failure or a decision that differs in any bit
// from `expected` counts against the run.
void checked_query(Context& ctx, Client& client, std::uint64_t session,
                   std::uint64_t seq, const std::vector<double>& row,
                   double expected) {
  ctx.ledger.attempt("query", [&] {
    client.send_frame(QueryRequest{session, seq, row}.encode());
    const double got = read_decision(client, session, seq);
    ctx.checks.decisions_compared.fetch_add(1);
    if (!same_bits(got, expected)) {
      throw std::runtime_error("served decision differs from FlatTree");
    }
  });
}

// Jobs are submitted over the wire; their end is observed in process,
// where JobHandle::wait() wakes exactly when the job finishes (a wire
// poll would quantize job times to its polling interval).
void wait_job(Context& ctx, std::uint64_t id) {
  const JobHandle job = ctx.server->service().find(id);
  if (!job.valid()) throw std::runtime_error("submitted job not in table");
  job.wait();
  if (job.status() != JobStatus::kDone) {
    throw std::runtime_error(std::string("job ") + to_string(job.status()) +
                             " " + job.error());
  }
}

std::uint64_t submitted(std::optional<std::uint64_t> id) {
  if (!id) throw std::runtime_error("submit refused: BUSY");
  return *id;
}

// Version of the tree deployed as "abr" (0 when none).
std::uint64_t abr_version(Client& client) {
  const auto list = client.list_trees();
  for (std::size_t i = 0; i < list.names.size(); ++i) {
    if (list.names[i] == "abr") return list.versions[i];
  }
  return 0;
}

// Polls list_trees every millisecond until "abr" is newer than `after`.
std::uint64_t wait_deployed(Client& client, std::uint64_t after) {
  const auto give_up = Clock::now() + std::chrono::seconds(10);
  for (;;) {
    const std::uint64_t v = abr_version(client);
    if (v > after) return v;
    if (Clock::now() > give_up) throw std::runtime_error("deploy timed out");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

// Only the first job of each variant is replayed; the later ones are
// compared with that replay and need nothing more from the server. Evict
// them from the Service's job table, which otherwise keeps every result
// and grows the run's memory with the number of jobs finished.
void release_job(Context& ctx, std::uint64_t id, std::size_t index,
                 std::size_t variants) {
  if (index >= variants) (void)ctx.server->service().forget(id);
}

}  // namespace

// ---- setup ------------------------------------------------------------------

double setup(Context& ctx) {
  std::filesystem::remove_all(ctx.store_dir);
  const auto t0 = Clock::now();
  metis::serve::ServerConfig cfg;
  cfg.unix_path = ctx.socket_path;
  cfg.store_dir = ctx.store_dir;
  cfg.auto_deploy_distilled = true;
  cfg.service.workers = 1;
  cfg.service.options.scale = kScale;
  {
    MaybeSpan span(ctx.tracer, "setup.server_start");
    ctx.server = std::make_unique<metis::serve::Server>(cfg);
    ctx.server->start();
  }
  metis::net::ClientConfig cc;
  cc.connect_timeout_ms = 5000;
  cc.read_timeout_ms = 60000;
  ctx.control.emplace(Client::connect_unix(ctx.socket_path, cc));
  ctx.stream.emplace(Client::connect_unix(ctx.socket_path, cc));
  Client& control = *ctx.control;
  {
    // The first ABR job builds (trains) the teacher inside the Service
    // and distills the tree the query plane serves.
    MaybeSpan span(ctx.tracer, "setup.build_local");
    ctx.setup_job = submitted(control.submit_distill("abr", {}));
    wait_job(ctx, ctx.setup_job);
  }
  {
    MaybeSpan span(ctx.tracer, "setup.build_global");
    for (const char* key : {"routing", "cluster"}) {
      metis::api::InterpretOverrides o;
      o.steps = 1;
      wait_job(ctx, submitted(control.submit_interpret(key, o)));
    }
  }
  {
    MaybeSpan span(ctx.tracer, "setup.deploy");
    (void)wait_deployed(control, 0);
  }
  {
    MaybeSpan span(ctx.tracer, "setup.sessions");
    ctx.sessions_a.clear();
    ctx.sessions_b.clear();
    for (std::size_t i = 0; i < kSessionsPerConnection; ++i) {
      ctx.sessions_a.push_back(control.open_session("abr"));
      ctx.sessions_b.push_back(ctx.stream->open_session("abr"));
    }
  }
  return since_s(t0);
}

void teardown(Context& ctx) {
  ctx.control.reset();
  ctx.stream.reset();
  if (ctx.server) ctx.server->stop();
  ctx.server.reset();  // the Service drains its jobs
  std::filesystem::remove_all(ctx.store_dir);
}

double side_setup(const Context& ctx) {
  Context side;
  side.opt = ctx.opt;
  side.tracer = ctx.tracer;
  side.socket_path = ctx.socket_path + ".side";
  side.store_dir = ctx.store_dir + ".side";
  const double seconds = setup(side);
  teardown(side);
  return seconds;
}

void make_query_rows(Context& ctx) {
  const auto result = ctx.control->distill_result(ctx.setup_job);
  ctx.deployed = std::make_shared<const metis::tree::FlatTree>(
      metis::tree::FlatTree::compile(
          metis::tree::deserialize(result.tree_text)));
  // The setup job's own environment clone; episodes are pure functions of
  // their index, so seeded indices give seeded rollouts.
  const auto env = ctx.server->service()
                       .find(ctx.setup_job)
                       .distill_run()
                       .system.env;
  metis::Rng rng = metis::Rng::derive(ctx.opt.seed, 0x9e7);
  const std::size_t episodes = ctx.opt.tiny ? 8 : 64;
  ctx.rows.clear();
  for (std::size_t e = 0; e < episodes; ++e) {
    (void)env->reset(rng.uniform_int(1u << 20));
    for (std::size_t step = 0; step < 40; ++step) {
      std::vector<double> features = env->interpretable_features();
      const double action = ctx.deployed->predict(features);
      ctx.rows.push_back(std::move(features));
      if (env->step(static_cast<std::size_t>(action)).done) break;
    }
  }
  ctx.expected.clear();
  for (const auto& row : ctx.rows) {
    ctx.expected.push_back(ctx.deployed->predict(row));
  }
}

// ---- query phase ------------------------------------------------------------

namespace {

// Sends a window of kPipelineWindow queries on one connection, reads and
// checks their replies, and repeats until `until`.
void pipeline(Context& ctx, Client& client,
              const std::vector<std::uint64_t>& sessions, std::uint64_t seq0,
              Clock::time_point until, std::uint64_t& decisions) {
  const std::size_t n = ctx.rows.size();
  std::uint64_t seq = seq0;
  std::vector<std::uint64_t> seqs(kPipelineWindow);
  while (Clock::now() < until) {
    for (std::size_t k = 0; k < kPipelineWindow; ++k) {
      seqs[k] = seq++;
      client.send_frame(QueryRequest{sessions[k % sessions.size()], seqs[k],
                                     ctx.rows[seqs[k] % n]}
                            .encode());
    }
    for (std::size_t k = 0; k < kPipelineWindow; ++k) {
      const double got =
          read_decision(client, sessions[k % sessions.size()], seqs[k]);
      ctx.checks.decisions_compared.fetch_add(1);
      if (same_bits(got, ctx.expected[seqs[k] % n])) {
        ctx.ledger.ok();
      } else {
        ctx.ledger.fail("pipelined decision differs from FlatTree");
      }
    }
    decisions += kPipelineWindow;
  }
}

}  // namespace

QueryResult run_query_phase(Context& ctx, double open_s, double pipelined_s) {
  QueryResult out;
  const std::size_t n = ctx.rows.size();
  Client* clients[2] = {&*ctx.control, &*ctx.stream};
  const std::vector<std::uint64_t>* sessions[2] = {&ctx.sessions_a,
                                                   &ctx.sessions_b};

  // Open loop: query i is due at t0 + i / rate whatever happened before,
  // alternating connections; latency runs from the due time.
  const auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / kOpenLoopRate));
  const auto t0 = Clock::now() + std::chrono::milliseconds(1);
  for (std::uint64_t i = 0;; ++i) {
    const auto due = t0 + static_cast<std::int64_t>(i) * interval;
    if (elapsed_s(t0, due) >= open_s) break;
    sleep_until(due);
    const auto sent = Clock::now();
    const std::size_t c = i % 2;
    const std::size_t row = (i / 2) % n;
    {
      MaybeSpan span(ctx.tracer, "decide.query");
      checked_query(ctx, *clients[c],
                    (*sessions[c])[(i / 2) % kSessionsPerConnection],
                    ctx.next_seq++, ctx.rows[row], ctx.expected[row]);
    }
    out.lag_us.push_back(elapsed_s(due, sent) * 1e6);
    out.latency_us.push_back(since_s(due) * 1e6);
  }

  // Closed loop, pipelined: both connections keep a full window in flight,
  // one client thread each.
  if (pipelined_s > 0.0) {
    MaybeSpan span(ctx.tracer, "decide.pipelined");
    const auto start = Clock::now();
    const auto until =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(pipelined_s));
    std::uint64_t decisions[2] = {0, 0};
    auto drive = [&](std::size_t c) {
      try {
        pipeline(ctx, *clients[c], *sessions[c], (c + 1) << 40, until,
                 decisions[c]);
      } catch (const std::exception& e) {
        ctx.ledger.fail(std::string("pipelined: ") + e.what());
      }
    };
    std::thread other(drive, 1);
    drive(0);
    other.join();
    out.pipelined_s = since_s(start);
    out.pipelined_decisions = static_cast<double>(decisions[0] + decisions[1]);
  }
  return out;
}

// ---- distill phase ----------------------------------------------------------

namespace {

// The tree the newest job deployed, handed from the job thread to the
// query stream so the stream follows each hot swap.
struct Published {
  metis::util::Mutex mu;
  std::uint64_t version GUARDED_BY(mu) = 0;
  std::shared_ptr<const metis::tree::FlatTree> tree GUARDED_BY(mu);
};

// Open-loop stream on connection B at kStreamRate until `stop`. After each
// publish it opens a session on the new version; a session whose version
// could not be pinned (a newer deploy raced the open) is retried.
void query_stream(Context& ctx, Published& published, std::uint64_t version,
                  const std::atomic<bool>& stop, DistillResult& out) {
  Client& client = *ctx.stream;
  // The setup sessions keep the setup tree whatever is deployed since.
  std::uint64_t session = ctx.sessions_b.front();
  std::shared_ptr<const metis::tree::FlatTree> tree = ctx.deployed;
  const std::size_t n = ctx.rows.size();
  const auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / kStreamRate));
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; !stop.load(); ++i) {
    const auto due = t0 + static_cast<std::int64_t>(i) * interval;
    sleep_until(due);
    std::uint64_t want = 0;
    std::shared_ptr<const metis::tree::FlatTree> next;
    {
      metis::util::MutexLock lock(published.mu);
      want = published.version;
      next = published.tree;
    }
    if (want != version) {
      ctx.ledger.attempt("stream session", [&] {
        const std::uint64_t before = abr_version(client);
        const std::uint64_t sid = client.open_session("abr");
        if (before == want && abr_version(client) == want) {
          session = sid;
          version = want;
          tree = next;
        }
      });
    }
    const auto sent = Clock::now();
    const std::vector<double>& row = ctx.rows[i % n];
    {
      MaybeSpan span(ctx.tracer, "distill.stream_query");
      checked_query(ctx, client, session, i | (1ull << 62), row,
                    tree->predict(row));
    }
    out.lag_us.push_back(elapsed_s(due, sent) * 1e6);
    out.latency_us.push_back(since_s(due) * 1e6);
  }
}

}  // namespace

DistillResult run_distill_phase(Context& ctx, double seconds) {
  DistillResult out;
  Client& control = *ctx.control;
  std::uint64_t version = abr_version(control);
  Published published;
  {
    metis::util::MutexLock lock(published.mu);
    published.version = version;
  }
  std::atomic<bool> stop{false};
  DistillResult stream_out;
  std::thread stream(
      [&] { query_stream(ctx, published, version, stop, stream_out); });

  // Seeded think time before each submit, so job ends fall at random
  // phases of the server's 50 ms deploy tick.
  metis::Rng think =
      metis::Rng::derive(ctx.opt.seed, 0x7417 + ctx.distill_jobs.size());
  const auto end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(seconds));
  do {
    std::this_thread::sleep_for(
        std::chrono::duration<double>(think.uniform(0.0, 0.05)));
    const std::size_t j = ctx.distill_jobs.size();
    const std::size_t variant = j % kDistillVariants;
    ctx.ledger.attempt("distill job", [&] {
      const auto submit = Clock::now();
      const std::uint64_t id = submitted(
          control.submit_distill("abr", distill_variant(ctx.opt, variant)));
      if (ctx.tracer != nullptr) {
        // Queue wait: submit -> the worker picks the job up.
        const JobHandle job = ctx.server->service().find(id);
        while (job.status() == JobStatus::kQueued) {
          std::this_thread::sleep_for(std::chrono::microseconds(100));
        }
        out.queue_wait_s.push_back(since_s(submit));
      }
      wait_job(ctx, id);
      const auto done = Clock::now();
      const auto result = control.distill_result(id);
      version = wait_deployed(control, version);
      const auto visible = Clock::now();
      // First decision served by the new version, checked bit for bit.
      auto tree = std::make_shared<const metis::tree::FlatTree>(
          metis::tree::FlatTree::compile(
              metis::tree::deserialize(result.tree_text)));
      const std::uint64_t session = control.open_session("abr");
      const std::vector<double>& row = ctx.rows[j % ctx.rows.size()];
      const std::uint64_t seq = ctx.next_seq++;
      control.send_frame(QueryRequest{session, seq, row}.encode());
      const double got = read_decision(control, session, seq);
      const auto first = Clock::now();
      ctx.checks.decisions_compared.fetch_add(1);
      if (!same_bits(got, tree->predict(row))) {
        throw std::runtime_error("first decision differs from the new tree");
      }
      {
        metis::util::MutexLock lock(published.mu);
        published.version = version;
        published.tree = std::move(tree);
      }
      if (ctx.tracer != nullptr) {
        ctx.tracer->record("distill.job", submit, done, id);
        ctx.tracer->record("distill.deploy_wait", done, visible, id);
        ctx.tracer->record("distill.first_decision", submit, first, id);
      }
      out.job_s.push_back(elapsed_s(submit, done));
      out.deploy_wait_s.push_back(elapsed_s(done, visible));
      out.first_decision_s.push_back(elapsed_s(submit, first));
      ctx.distill_jobs.push_back(DistillJob{id, variant, result.tree_text,
                                            result.fidelity,
                                            elapsed_s(submit, done)});
      release_job(ctx, id, j, kDistillVariants);
    });
  } while (Clock::now() < end);
  stop.store(true);
  stream.join();
  out.latency_us = std::move(stream_out.latency_us);
  out.lag_us = std::move(stream_out.lag_us);
  return out;
}

// ---- interpret phase --------------------------------------------------------

InterpretResult run_interpret_phase(Context& ctx, double seconds) {
  InterpretResult out;
  Client& control = *ctx.control;
  const auto end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(seconds));
  do {
    const std::size_t variant = ctx.interpret_jobs.size() % kInterpretVariants;
    ctx.ledger.attempt("interpret job", [&] {
      const auto submit = Clock::now();
      const std::uint64_t id = submitted(control.submit_interpret(
          interpret_scenario(variant), interpret_variant(ctx.opt, variant)));
      wait_job(ctx, id);
      const auto done = Clock::now();
      const auto result = control.interpret_result(id);
      if (ctx.tracer != nullptr) {
        ctx.tracer->record("interpret.job", submit, done, id);
      }
      out.job_ms.push_back(elapsed_s(submit, done) * 1e3);
      ctx.interpret_jobs.push_back(InterpretJob{
          id, variant, result.edges, result.vertices, result.masks});
      release_job(ctx, id, ctx.interpret_jobs.size() - 1, kInterpretVariants);
    });
  } while (Clock::now() < end);
  return out;
}

}  // namespace metisbench
