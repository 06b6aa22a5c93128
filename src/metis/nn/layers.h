// Trainable layers built on the autodiff tape.
#pragma once

#include <vector>

#include "metis/nn/autodiff.h"
#include "metis/util/rng.h"

namespace metis::nn {

enum class Activation { kNone, kRelu, kTanh, kSigmoid };

// Applies an activation function (kNone is the identity).
[[nodiscard]] Var apply_activation(const Var& x, Activation act);

// Fully connected layer: y = x W + b with W (in x out) and b (1 x out).
class Linear {
 public:
  // He-style initialization scaled for the chosen fan-in.
  Linear(std::size_t in_dim, std::size_t out_dim, metis::Rng& rng);

  [[nodiscard]] Var forward(const Var& x) const;

  // Deep copy with fresh parameter nodes holding bitwise-equal values —
  // the clone trains and accumulates gradients independently of the
  // original (per-job model clones on the serve path rely on this).
  [[nodiscard]] Linear clone() const;

  // Copy whose weight and bias are constants over bitwise-equal values:
  // forwards match the original's, and backward passes through it reach
  // the input only, with no weight gradient to compute or race on — any
  // number of concurrent tapes can share one frozen copy read-only.
  [[nodiscard]] Linear frozen() const;

  [[nodiscard]] std::size_t in_dim() const { return in_dim_; }
  [[nodiscard]] std::size_t out_dim() const { return out_dim_; }

  // Trainable parameters, in a stable order (for optimizers and
  // serialization).
  [[nodiscard]] std::vector<Var> parameters() const { return {w_, b_}; }

  // Direct access for model surgery (§6.2 DNN-structure redesign).
  [[nodiscard]] const Var& weights() const { return w_; }
  [[nodiscard]] const Var& bias() const { return b_; }

 private:
  std::size_t in_dim_;
  std::size_t out_dim_;
  Var w_;
  Var b_;
};

// Counts scalar parameters across a parameter list (model-size reporting in
// Fig. 17b).
[[nodiscard]] std::size_t parameter_count(const std::vector<Var>& params);

// Copies values from one parameter list to another (same shapes).
void copy_parameters(const std::vector<Var>& from, const std::vector<Var>& to);

}  // namespace metis::nn
