// Deterministic random number generation for all Metis experiments.
//
// Every stochastic component in the library (trace generators, RL
// exploration, resamplers, mask initialization) takes an explicit Rng so
// that every experiment (the bench/ figure binaries, metisbench) is
// reproducible from a seed.
#pragma once

#include <cstdint>
#include <vector>

namespace metis {

// xoshiro256** 1.0 (Blackman & Vigna). Small, fast, and good enough for
// simulation workloads; we avoid std::mt19937 to keep cross-platform
// bit-for-bit determinism under our own control.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  // Uniform 64-bit word.
  std::uint64_t next_u64();

  // Uniform double in [0, 1).
  double uniform();

  // Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  // Uniform integer in [0, n). Requires n > 0.
  std::uint64_t uniform_int(std::uint64_t n);

  // Standard normal via Box–Muller (cached spare).
  double normal();

  // Normal with the given mean and standard deviation (sigma >= 0).
  double normal(double mean, double sigma);

  // Exponential with the given rate (rate > 0).
  double exponential(double rate);

  // Log-normal: exp(Normal(mu, sigma)).
  double lognormal(double mu, double sigma);

  // Pareto with scale xm > 0 and shape alpha > 0.
  double pareto(double xm, double alpha);

  // Bernoulli trial with success probability p in [0, 1].
  bool bernoulli(double p);

  // Samples an index in [0, weights.size()) with probability proportional
  // to weights[i]. All weights must be >= 0 and the sum must be > 0.
  std::size_t categorical(const std::vector<double>& weights);

  // Fisher–Yates shuffle of indices [0, n).
  std::vector<std::size_t> permutation(std::size_t n);

  // Deterministically derives an independent stream (for parallel
  // sub-experiments that must not share state).
  Rng split();

  // Stateless split(): derives stream `stream` of `seed` without
  // constructing (or advancing) a parent generator. Per-index work units
  // (trace-collection episodes, LEMNA clusters) use this so unit k's
  // randomness is a pure function of (seed, k), independent of which
  // other units run beside it or in what order.
  static Rng derive(std::uint64_t seed, std::uint64_t stream);

 private:
  std::uint64_t s_[4];
  bool has_spare_ = false;
  double spare_ = 0.0;
};

}  // namespace metis
