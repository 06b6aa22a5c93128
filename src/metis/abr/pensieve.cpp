#include "metis/abr/pensieve.h"

#include "metis/util/check.h"

namespace metis::abr {

PensieveAgent::PensieveAgent(const PensieveConfig& cfg)
    : cfg_(cfg),
      rng_(cfg.seed),
      net_(kStateDim, cfg.hidden_dim, cfg.hidden_layers, kLevels, rng_,
           // Feature 0 of the state vector is the normalized last bitrate
           // r_t; the modified structure routes it into the policy head.
           cfg.modified_structure ? 0 : -1) {}

double PensieveAgent::pretrain(const AbrEnv& env, const PretrainConfig& cfg) {
  const Video& video = env.video();
  CausalMpcExpert expert(cfg.expert);
  std::vector<DemoStep> demos;

  // Appends one episode's demonstrations; `actor` picks the executed
  // action from the observation and the expert's label for it (the label
  // itself for the seed rounds, the current clone's choice for DAgger
  // rounds), while the recorded label is always the expert's.
  auto roll = [&](const NetworkTrace& trace, double offset,
                  const std::function<std::size_t(const AbrObservation&,
                                                  std::size_t)>& actor) {
    AbrSession session(&video, &trace, offset);
    const std::size_t first = demos.size();
    std::vector<double> rewards;
    while (!session.done()) {
      const AbrObservation obs = session.observe();
      DemoStep d;
      d.state = featurize(obs, video);
      d.action = expert.decide(obs);
      const std::size_t action = actor(obs, d.action);
      demos.push_back(std::move(d));
      rewards.push_back(session.step(action).qoe);
    }
    double g = 0.0;
    for (std::size_t i = rewards.size(); i-- > 0;) {
      g = rewards[i] + cfg_.train.gamma * g;
      demos[first + i].mc_return = g;
    }
  };

  auto refit = [&] {
    std::vector<std::vector<double>> states;
    std::vector<std::size_t> actions;
    std::vector<double> returns;
    states.reserve(demos.size());
    actions.reserve(demos.size());
    returns.reserve(demos.size());
    for (const auto& d : demos) {
      states.push_back(d.state);
      actions.push_back(d.action);
      returns.push_back(d.mc_return);
    }
    return nn::behavior_clone(net_, states, actions, returns, cfg.bc);
  };

  for (const auto& trace : env.corpus()) {
    for (std::size_t k = 0; k < cfg.offsets_per_trace; ++k) {
      const double offset = trace.duration_seconds() * 0.5 *
                            static_cast<double>(k) /
                            static_cast<double>(cfg.offsets_per_trace);
      roll(trace, offset,
           [](const AbrObservation&, std::size_t label) { return label; });
    }
  }
  double ce = refit();

  for (std::size_t round = 0; round < cfg.dagger_rounds; ++round) {
    // Roll out the current clone; the expert labels every visited state.
    for (const auto& trace : env.corpus()) {
      for (std::size_t k = 0; k < cfg.dagger_offsets_per_trace; ++k) {
        const double offset = trace.duration_seconds() * 0.5 *
                              (static_cast<double>(k) + 0.3) /
                              static_cast<double>(cfg.dagger_offsets_per_trace);
        roll(trace, offset, [&](const AbrObservation& obs, std::size_t) {
          return net_.greedy_action(featurize(obs, video));
        });
      }
    }
    ce = refit();
  }
  return ce;
}

nn::A2cResult PensieveAgent::train(AbrEnv& env) {
  return nn::train_a2c(net_, env, cfg_.train, rng_);
}

std::size_t PensieveAgent::act(const AbrObservation& obs,
                               const Video& video) const {
  return net_.greedy_action(featurize(obs, video));
}

std::vector<double> PensieveAgent::action_probs(const AbrObservation& obs,
                                                const Video& video) const {
  return net_.action_probs(featurize(obs, video));
}

double PensieveAgent::value(const AbrObservation& obs,
                            const Video& video) const {
  return net_.value(featurize(obs, video));
}

DnnAbrPolicy::DnnAbrPolicy(const PensieveAgent* agent, const Video* video,
                           std::string label)
    : agent_(agent), video_(video), label_(std::move(label)) {
  MET_CHECK(agent != nullptr && video != nullptr);
}

std::size_t DnnAbrPolicy::decide(const AbrObservation& obs) {
  return agent_->act(obs, *video_);
}

}  // namespace metis::abr
