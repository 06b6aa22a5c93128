// Replays of served jobs through the layer functions, and per-call timings
// of those functions on this run's shapes.
#include <bit>
#include <cmath>
#include <filesystem>
#include <stdexcept>

#include "bench.h"
#include "metis/abr/scenario.h"
#include "metis/core/distill.h"
#include "metis/core/hypergraph_interpreter.h"
#include "metis/core/resampler.h"
#include "metis/core/trace_collector.h"
#include "metis/net/wire.h"
#include "metis/nn/arena.h"
#include "metis/nn/autodiff.h"
#include "metis/nn/gemm.h"
#include "metis/store/snapshot_store.h"
#include "metis/tree/cart.h"
#include "metis/tree/prune.h"
#include "metis/tree/tree_io.h"

namespace metisbench {
namespace {

// The replayed stages must sum to within this share of the served job
// time (submit -> done). The replay runs without the service's queueing,
// job clone and concurrent query stream, so it reads about 8% low; and it
// runs once, after the rounds, while the served time is a median over
// them, so a machine that flips between states ~1.4x apart can move it by
// a further quarter.
constexpr double kStageSumTolerance = 0.35;

// Runs `fn` under a span and returns its seconds.
template <typename Fn>
double timed(Tracer* tracer, const char* name, std::uint64_t job, Fn&& fn) {
  const auto t0 = Clock::now();
  {
    MaybeSpan span(tracer, name, job);
    fn();
  }
  return since_s(t0);
}

// Median per-call seconds of `fn` over `blocks` blocks of `per_block`
// calls each.
template <typename Fn>
double per_call_s(std::size_t blocks, std::size_t per_block, Fn&& fn) {
  std::vector<double> samples;
  samples.reserve(blocks);
  for (std::size_t b = 0; b < blocks; ++b) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < per_block; ++i) fn(b * per_block + i);
    samples.push_back(since_s(t0) / static_cast<double>(per_block));
  }
  return median(samples);
}

// Keeps computed values observable so timed loops are not folded away.
volatile double g_sink = 0.0;

}  // namespace

DistillStages replay_distill(Context& ctx) {
  DistillStages out;
  Tracer* tracer = ctx.tracer;
  metis::store::SnapshotStore store({.dir = ctx.store_dir + ".replay"});
  double served_sum = 0.0;
  double stage_sum = 0.0;
  for (std::size_t v = 0; v < kDistillVariants; ++v) {
    std::vector<const DistillJob*> jobs;
    for (const DistillJob& j : ctx.distill_jobs) {
      if (j.variant == v) jobs.push_back(&j);
    }
    if (jobs.empty()) continue;
    const std::uint64_t id = jobs.front()->id;
    const metis::serve::JobHandle handle = ctx.server->service().find(id);
    const metis::api::DistillRun& run = handle.distill_run();
    const metis::core::DistillConfig& cfg = run.config;
    const metis::core::Teacher& teacher = *run.system.teacher;
    metis::core::RolloutEnv& env = *run.system.env;
    if (cfg.resample && cfg.resample_size > 0) {
      throw std::logic_error("replay covers weighted resampling only");
    }

    // distill_policy, one public call at a time.
    MaybeSpan job_span(tracer, "replay.distill", id);
    metis::nn::arena::Scope arena;
    const auto fresh0 = metis::nn::arena::stats().fresh_allocs;
    metis::core::CollectConfig collect = cfg.collect;
    collect.weight_by_advantage = cfg.resample;
    std::vector<metis::core::CollectedSample> all;
    metis::tree::DecisionTree student;
    double collect_s = 0.0, fit_s = 0.0, prune_s = 0.0;
    auto fit_and_prune = [&] {
      metis::tree::Dataset data;
      fit_s += timed(tracer, "core.to_dataset", id, [&] {
        data = metis::core::to_dataset(all, cfg.feature_names);
      });
      fit_s += timed(tracer, "tree.fit", id, [&] {
        student = metis::tree::DecisionTree::fit(data, cfg.fit);
      });
      if (student.leaf_count() > cfg.max_leaves) {
        prune_s += timed(tracer, "tree.prune", id, [&] {
          metis::tree::prune_to_leaf_count(student, cfg.max_leaves);
        });
      }
    };
    for (std::size_t round = 0; round < cfg.dagger_iterations; ++round) {
      const metis::core::StudentPolicy policy =
          [&student](std::span<const double> x) {
            return static_cast<std::size_t>(student.predict(x));
          };
      std::vector<metis::core::CollectedSample> samples;
      const double s = timed(tracer, "core.collect_round", id, [&] {
        samples = metis::core::collect_traces(
            teacher, env, collect, round == 0 ? nullptr : &policy,
            round * cfg.collect.episodes);
      });
      collect_s += s;
      out.collect_round_ms.push_back(s * 1e3);
      all.insert(all.end(), samples.begin(), samples.end());
      fit_and_prune();
    }
    fit_and_prune();  // distill_policy's final fit over the same samples
    std::size_t hits = 0;
    const double fidelity_s = timed(tracer, "core.fidelity", id, [&] {
      for (const auto& s : all) {
        hits += static_cast<std::size_t>(student.predict(s.features)) ==
                s.action;
      }
    });
    const double fidelity =
        static_cast<double>(hits) / static_cast<double>(all.size());
    const double compile_s = timed(tracer, "tree.compile", id, [&] {
      g_sink = static_cast<double>(
          metis::tree::FlatTree::compile(student).node_count());
    });
    const double publish_s = timed(tracer, "store.publish", id, [&] {
      (void)store.publish_tree("abr", student);
    });

    out.samples.push_back(static_cast<double>(all.size()));
    out.fit_ms.push_back(fit_s * 1e3);
    out.prune_ms.push_back(prune_s * 1e3);
    out.compile_us.push_back(compile_s * 1e6);
    out.publish_ms.push_back(publish_s * 1e3);
    out.arena_fresh.push_back(static_cast<double>(
        metis::nn::arena::stats().fresh_allocs - fresh0));

    // Every served tree of this variant must match the replay byte for
    // byte, and its fidelity bit for bit.
    const std::string text = metis::tree::serialize(student);
    std::vector<double> walls;
    for (const DistillJob* j : jobs) {
      ctx.checks.trees_compared.fetch_add(1);
      if (j->tree_text != text ||
          std::bit_cast<std::uint64_t>(j->fidelity) !=
              std::bit_cast<std::uint64_t>(fidelity)) {
        ctx.ledger.fail("distill job " + std::to_string(j->id) +
                        " differs from its replay");
      } else {
        ctx.ledger.ok();
      }
      walls.push_back(j->wall_s);
    }
    const double stages = collect_s + fit_s + prune_s + fidelity_s;
    served_sum += median(walls);
    stage_sum += stages;
    out.stage_sum_ratio.push_back(stages / median(walls));
  }

  // The stages must add up to the served job time (traced runs, where the
  // stages are what the per-layer metrics report).
  if (tracer != nullptr && served_sum > 0.0) {
    ctx.checks.stage_sums_checked.fetch_add(1);
    const double ratio = stage_sum / served_sum;
    if (std::abs(ratio - 1.0) > kStageSumTolerance) {
      ctx.ledger.fail("distill stages sum to " + std::to_string(ratio) +
                      " of the served job time (tolerance " +
                      std::to_string(kStageSumTolerance) + ")");
    } else {
      ctx.ledger.ok();
    }
  }
  std::filesystem::remove_all(ctx.store_dir + ".replay");
  return out;
}

InterpretStages replay_interpret(Context& ctx) {
  InterpretStages out;
  Tracer* tracer = ctx.tracer;
  for (std::size_t v = 0; v < kInterpretVariants; ++v) {
    std::vector<const InterpretJob*> jobs;
    for (const InterpretJob& j : ctx.interpret_jobs) {
      if (j.variant == v) jobs.push_back(&j);
    }
    if (jobs.empty()) continue;
    const std::uint64_t id = jobs.front()->id;
    const metis::serve::JobHandle handle = ctx.server->service().find(id);
    const metis::api::InterpretRun& run = handle.interpret_run();

    MaybeSpan job_span(tracer, "replay.interpret", id);
    metis::nn::arena::Scope arena;
    const auto nodes0 = metis::nn::arena::node_stats().fresh_allocs;
    std::shared_ptr<metis::core::MaskableModel> model;
    const double clone_s = timed(tracer, "core.model_clone", id, [&] {
      model = run.system.model->clone();
    });
    if (model == nullptr) model = run.system.model;
    metis::core::InterpretResult result;
    const double search_s = timed(tracer, "core.mask_search", id, [&] {
      result = metis::core::find_critical_connections(*model, run.config);
    });
    out.model_clone_us.push_back(clone_s * 1e6);
    out.mask_step_us.push_back(
        search_s * 1e6 /
        static_cast<double>(std::max<std::size_t>(1, run.config.steps)));
    out.node_fresh.push_back(static_cast<double>(
        metis::nn::arena::node_stats().fresh_allocs - nodes0));

    for (const InterpretJob* j : jobs) {
      ctx.checks.rankings_compared.fetch_add(1);
      bool same = j->edges.size() == result.ranked.size();
      for (std::size_t i = 0; same && i < result.ranked.size(); ++i) {
        const auto& c = result.ranked[i];
        same = j->edges[i] == c.edge && j->vertices[i] == c.vertex &&
               std::bit_cast<std::uint64_t>(j->masks[i]) ==
                   std::bit_cast<std::uint64_t>(c.mask);
      }
      if (same) {
        ctx.ledger.ok();
      } else {
        ctx.ledger.fail("interpret job " + std::to_string(j->id) +
                        " differs from its replay");
      }
    }
  }
  return out;
}

void time_layers(Context& ctx, Report& report) {
  namespace net = metis::net;
  const std::size_t n = ctx.rows.size();
  const std::size_t blocks = ctx.opt.tiny ? 20 : 400;

  // ---- query plane: the four in-process steps of one decision ------------
  std::vector<std::vector<std::uint8_t>> query_bytes(n);
  for (std::size_t i = 0; i < n; ++i) {
    query_bytes[i] =
        net::encode_frame(net::QueryRequest{1, i, ctx.rows[i]}.encode());
  }
  std::vector<std::uint8_t> buf;
  const double encode_s = per_call_s(blocks, 64, [&](std::size_t i) {
    buf.clear();
    net::encode_frame(net::QueryRequest{1, i, ctx.rows[i % n]}.encode(), buf);
    g_sink = static_cast<double>(buf.size());
  });
  net::FrameDecoder decoder;
  net::Frame frame;
  const double decode_s = per_call_s(blocks, 64, [&](std::size_t i) {
    decoder.feed(query_bytes[i % n]);
    if (!decoder.next(frame)) throw std::logic_error("no frame decoded");
    g_sink = net::QueryRequest::decode(frame).features[0];
  });
  const double predict_s = per_call_s(blocks, 256, [&](std::size_t i) {
    g_sink = ctx.deployed->predict(ctx.rows[i % n]);
  });
  const double reply_s = per_call_s(blocks, 64, [&](std::size_t i) {
    buf.clear();
    net::encode_frame(
        net::DecisionReply{1, i, ctx.expected[i % n]}.encode(), buf);
    g_sink = static_cast<double>(buf.size());
  });
  report.set("net.query_encode_ns", encode_s * 1e9, "ns", blocks);
  report.set("net.frame_decode_ns", decode_s * 1e9, "ns", blocks);
  report.set("tree.predict_ns", predict_s * 1e9, "ns", blocks);
  report.set("net.reply_encode_ns", reply_s * 1e9, "ns", blocks);
  report.set("serve.inproc_decision_us",
             (encode_s + decode_s + predict_s + reply_s) * 1e6, "us", blocks);

  // ---- distill: the teacher's per-step batch and its trunk GEMMs ---------
  const metis::api::DistillRun& run =
      ctx.server->service().find(ctx.setup_job).distill_run();
  metis::core::RolloutEnv& env = *run.system.env;
  std::vector<std::vector<std::vector<double>>> groups;
  for (std::size_t e = 0; groups.size() < 64 && e < 64; ++e) {
    std::vector<double> state = env.reset(e);
    for (std::size_t step = 0; step < 40 && groups.size() < 64; ++step) {
      std::vector<std::vector<double>> group{state};
      for (auto& la : env.lookahead()) group.push_back(la.next_state);
      groups.push_back(std::move(group));
      const auto r = env.step(step % env.action_count());
      if (r.done) break;
      state = r.next_state;
    }
  }
  const std::size_t group_rows = groups.front().size();
  const std::size_t group_size[1] = {group_rows};
  double teacher_s = 0.0;
  {
    metis::nn::arena::Scope arena;
    teacher_s = per_call_s(blocks / 4, 16, [&](std::size_t i) {
      const auto& g = groups[i % groups.size()];
      g_sink = static_cast<double>(
          run.system.teacher->act_and_values_multi(g, group_size)
              .front()
              .action);
    });
  }
  report.set("core.teacher_batch_us", teacher_s * 1e6, "us", blocks / 4);

  const auto params = metis::abr::abr_context(run.system)->agent.net().parameters();
  double gemm_s = 0.0;
  {
    metis::nn::arena::Scope arena;
    // Trunk layers are every (weight, bias) pair before the two heads.
    for (std::size_t p = 0; p + 4 < params.size(); p += 2) {
      const metis::nn::Tensor& w = params[p]->value();
      const metis::nn::Tensor& b = params[p + 1]->value();
      metis::nn::Tensor x(group_rows, w.rows());
      for (std::size_t i = 0; i < x.data().size(); ++i) {
        x.data()[i] = 0.01 * static_cast<double>(i % 97);
      }
      gemm_s += per_call_s(blocks / 4, 64, [&](std::size_t) {
        g_sink = metis::nn::gemm::matmul_add_bias(x, w, b).data()[0];
      });
    }
  }
  report.set("nn.gemm_us", gemm_s * 1e6, "us", blocks / 4);

  // ---- interpret: one mask step's forward and backward on routing --------
  const InterpretJob* routing = nullptr;  // the first, kept in the job table
  for (const InterpretJob& j : ctx.interpret_jobs) {
    if (j.variant == 0 && routing == nullptr) routing = &j;
  }
  if (routing != nullptr) {
    const metis::api::InterpretRun& irun =
        ctx.server->service().find(routing->id).interpret_run();
    const auto model = irun.system.model->clone();
    const metis::nn::Tensor incidence = model->graph().incidence_matrix();
    std::vector<double> fwd, bwd;
    metis::nn::arena::Scope arena;
    const metis::nn::Var support = metis::nn::constant(incidence);
    const metis::nn::Var logits = metis::nn::parameter(
        metis::nn::Tensor(incidence.rows(), incidence.cols()));
    for (std::size_t i = 0; i < (ctx.opt.tiny ? 5u : 60u); ++i) {
      const auto t0 = Clock::now();
      const metis::nn::Var loss = metis::nn::sum_all(
          model->decisions(metis::nn::gated_sigmoid(logits, support)));
      const auto t1 = Clock::now();
      metis::nn::backward(loss);
      fwd.push_back(elapsed_s(t0, t1));
      bwd.push_back(since_s(t1));
      g_sink = loss->value().data()[0];
    }
    report.set("nn.decisions_fwd_us", median(fwd) * 1e6, "us", fwd.size());
    report.set("nn.backward_us", median(bwd) * 1e6, "us", bwd.size());
  }

  // ---- setup: the scenario builds themselves --------------------------------
  const auto& registry = ctx.server->service().registry();
  const auto& options = ctx.server->service().options();
  std::vector<double> local_s, global_s;
  for (std::size_t rep = 0; rep < (ctx.opt.tiny ? 1u : 3u); ++rep) {
    local_s.push_back(timed(ctx.tracer, "api.build_local", 0, [&] {
      (void)registry.get("abr").make_local(options);
    }));
    global_s.push_back(timed(ctx.tracer, "api.build_global", 0, [&] {
      (void)registry.get("routing").make_global(options);
      (void)registry.get("cluster").make_global(options);
    }));
  }
  report.set("api.build_local_s", median(local_s), "s", local_s.size());
  report.set("api.build_global_s", median(global_s), "s", global_s.size());
}

}  // namespace metisbench
