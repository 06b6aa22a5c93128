#include "metis/nn/a2c.h"

#include <cmath>

#include "metis/util/check.h"

namespace metis::nn {
namespace {

struct Transition {
  std::vector<double> state;
  std::size_t action = 0;
  double reward = 0.0;
};

}  // namespace

double run_episode(
    DiscreteEnv& env, std::size_t episode_index, std::size_t max_steps,
    const std::function<std::size_t(std::span<const double>)>& policy) {
  std::vector<double> state = env.reset(episode_index);
  double total = 0.0;
  for (std::size_t t = 0; t < max_steps; ++t) {
    const std::size_t a = policy(state);
    MET_CHECK(a < env.action_count());
    StepResult sr = env.step(a);
    total += sr.reward;
    if (sr.done) break;
    state = std::move(sr.next_state);
  }
  return total;
}

double evaluate_greedy(const PolicyNet& net, DiscreteEnv& env,
                       std::size_t episodes, std::size_t max_steps,
                       std::size_t episode_offset) {
  MET_CHECK(episodes > 0);
  double total = 0.0;
  for (std::size_t e = 0; e < episodes; ++e) {
    total += run_episode(env, episode_offset + e, max_steps,
                         [&](std::span<const double> s) {
                           return net.greedy_action(s);
                         });
  }
  return total / static_cast<double>(episodes);
}

A2cResult train_a2c(PolicyNet& net, DiscreteEnv& env, const A2cConfig& cfg,
                    metis::Rng& rng) {
  MET_CHECK(env.state_dim() == net.state_dim());
  MET_CHECK(env.action_count() == net.action_count());

  Adam actor_opt(net.parameters(), cfg.actor_lr);

  A2cResult result;
  const std::size_t n_actions = env.action_count();

  for (std::size_t ep = 0; ep < cfg.episodes; ++ep) {
    // ---- Rollout with the stochastic policy --------------------------------
    std::vector<Transition> traj;
    traj.reserve(cfg.max_steps);
    std::vector<double> state = env.reset(ep);
    for (std::size_t t = 0; t < cfg.max_steps; ++t) {
      auto probs = net.action_probs(state);
      const std::size_t a = rng.categorical(probs);
      StepResult sr = env.step(a);
      traj.push_back({state, a, sr.reward});
      if (sr.done) break;
      state = std::move(sr.next_state);
    }
    if (traj.empty()) continue;

    // ---- Discounted returns -------------------------------------------------
    const std::size_t n = traj.size();
    std::vector<double> returns(n);
    double g = 0.0;
    for (std::size_t i = n; i-- > 0;) {
      g = traj[i].reward + cfg.gamma * g;
      returns[i] = g;
    }

    // ---- Batch tensors ------------------------------------------------------
    Tensor states(n, env.state_dim());
    Tensor onehot(n, n_actions, 0.0);
    Tensor ret_col(n, 1);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < env.state_dim(); ++j) {
        states(i, j) = traj[i].state[j];
      }
      onehot(i, traj[i].action) = 1.0;
      ret_col(i, 0) = returns[i];
    }
    Var s_var = constant(std::move(states));
    Var a_var = constant(std::move(onehot));
    Var g_var = constant(ret_col);

    // ---- Advantage (treated as a constant for the actor) -------------------
    // Standardized per batch: raw returns reach tens of QoE units, and
    // unnormalized advantages act as a huge effective learning rate on the
    // policy gradient, saturating the softmax onto one action. Only the
    // baseline's values are read, so its forward records no tape.
    Tensor adv(n, 1);
    {
      NoGradGuard no_grad;
      const Var v_pred = net.values(s_var);
      for (std::size_t i = 0; i < n; ++i) {
        adv(i, 0) = ret_col(i, 0) - v_pred->value()(i, 0);
      }
    }
    {
      double m = 0.0;
      for (std::size_t i = 0; i < n; ++i) m += adv(i, 0);
      m /= static_cast<double>(n);
      double s2 = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        const double d = adv(i, 0) - m;
        s2 += d * d;
      }
      const double sd = std::sqrt(s2 / static_cast<double>(n)) + 1e-8;
      for (std::size_t i = 0; i < n; ++i) adv(i, 0) = (adv(i, 0) - m) / sd;
    }
    Var adv_var = constant(std::move(adv));

    // ---- Combined actor-critic loss ----------------------------------------
    // actor:  -E[ log π(a|s) * A(s,a) ] - β H(π)
    // critic:  E[ (V(s) - G)^2 ] * value_coef / Var(G); the variance term
    // keeps the critic's gradient through the shared trunk at the actor's
    // scale regardless of the environment's reward magnitude.
    Var logp = log_softmax_rows(net.logits(s_var));
    Var chosen_logp = rows_dot(logp, a_var);             // n x 1
    Var actor_loss = scale(mean_all(mul(chosen_logp, adv_var)), -1.0);
    Var probs = softmax_rows(net.logits(s_var));
    Var entropy = scale(mean_all(mul(probs, log_op(probs))), -1.0);
    double g_var_scale = 0.0;
    {
      double m = 0.0;
      for (std::size_t i = 0; i < n; ++i) m += ret_col(i, 0);
      m /= static_cast<double>(n);
      for (std::size_t i = 0; i < n; ++i) {
        const double d = ret_col(i, 0) - m;
        g_var_scale += d * d;
      }
      g_var_scale = std::max(g_var_scale / static_cast<double>(n), 1.0);
    }
    Var critic_loss = mse_loss(net.values(s_var), g_var);
    Var loss = add(add(actor_loss, scale(entropy, -cfg.entropy_bonus)),
                   scale(critic_loss, cfg.value_coef / g_var_scale));

    actor_opt.zero_grad();
    backward(loss);
    actor_opt.clip_grad_norm(cfg.grad_clip);
    actor_opt.step();

    // ---- Periodic evaluation ------------------------------------------------
    if (cfg.eval_every > 0 && (ep + 1) % cfg.eval_every == 0) {
      A2cTrainPoint pt;
      pt.episode = ep + 1;
      pt.mean_eval_return =
          evaluate_greedy(net, env, cfg.eval_episodes, cfg.max_steps);
      result.curve.push_back(pt);
    }
  }

  result.final_mean_return =
      evaluate_greedy(net, env, cfg.eval_episodes, cfg.max_steps);
  return result;
}

double behavior_clone(PolicyNet& net,
                      const std::vector<std::vector<double>>& states,
                      const std::vector<std::size_t>& actions,
                      const std::vector<double>& mc_returns,
                      const BcConfig& cfg) {
  MET_CHECK(!states.empty());
  MET_CHECK(states.size() == actions.size());
  MET_CHECK(states.size() == mc_returns.size());
  const std::size_t n = states.size();
  const std::size_t dim = net.state_dim();
  const std::size_t n_actions = net.action_count();
  for (std::size_t i = 0; i < n; ++i) {
    MET_CHECK(states[i].size() == dim);
    MET_CHECK(actions[i] < n_actions);
  }
  double g_variance = 0.0;
  {
    double m = 0.0;
    for (double v : mc_returns) m += v;
    m /= static_cast<double>(n);
    for (double v : mc_returns) g_variance += (v - m) * (v - m);
    g_variance = std::max(g_variance / static_cast<double>(n), 1.0);
  }

  const std::size_t batch =
      cfg.batch_size == 0 ? n : std::min(cfg.batch_size, n);
  metis::Rng rng(cfg.seed);
  Adam opt(net.parameters(), cfg.lr);
  double ce = 0.0;
  for (std::size_t e = 0; e < cfg.epochs; ++e) {
    Tensor s(batch, dim);
    Tensor onehot(batch, n_actions, 0.0);
    Tensor g(batch, 1);
    for (std::size_t r = 0; r < batch; ++r) {
      const std::size_t i =
          batch == n ? r : static_cast<std::size_t>(rng.uniform_int(n));
      for (std::size_t j = 0; j < dim; ++j) s(r, j) = states[i][j];
      onehot(r, actions[i]) = 1.0;
      g(r, 0) = mc_returns[i];
    }
    Var s_var = constant(std::move(s));
    Var a_var = constant(std::move(onehot));
    Var g_var = constant(std::move(g));
    Var logp = log_softmax_rows(net.logits(s_var));
    Var ce_loss = scale(mean_all(rows_dot(logp, a_var)), -1.0);
    Var v_loss = mse_loss(net.values(s_var), g_var);
    Var loss = add(ce_loss, scale(v_loss, cfg.value_coef / g_variance));
    opt.zero_grad();
    backward(loss);
    opt.step();
    ce = ce_loss->value()(0, 0);
  }
  return ce;
}

}  // namespace metis::nn
