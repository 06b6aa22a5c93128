#include "metis/nn/layers.h"

#include <cmath>

#include "metis/util/check.h"

namespace metis::nn {

Var apply_activation(const Var& x, Activation act) {
  switch (act) {
    case Activation::kNone:
      return x;
    case Activation::kRelu:
      return relu(x);
    case Activation::kTanh:
      return tanh_op(x);
    case Activation::kSigmoid:
      return sigmoid(x);
  }
  MET_CHECK_MSG(false, "unknown activation");
  return x;  // unreachable
}

Linear::Linear(std::size_t in_dim, std::size_t out_dim, metis::Rng& rng)
    : in_dim_(in_dim), out_dim_(out_dim) {
  MET_CHECK(in_dim > 0 && out_dim > 0);
  Tensor w(in_dim, out_dim);
  const double scale = std::sqrt(2.0 / static_cast<double>(in_dim));
  for (double& v : w.data()) v = rng.normal(0.0, scale);
  w_ = parameter(std::move(w));
  b_ = parameter(Tensor(1, out_dim, 0.0));
}

Linear Linear::clone() const {
  Linear copy(*this);  // copies the shared Vars...
  copy.w_ = parameter(w_->value());  // ...then replaces them with fresh
  copy.b_ = parameter(b_->value());  // nodes over bitwise-equal values
  return copy;
}

Linear Linear::frozen() const {
  Linear copy(*this);
  copy.w_ = constant(w_->value());
  copy.b_ = constant(b_->value());
  return copy;
}

Var Linear::forward(const Var& x) const {
  MET_CHECK_MSG(x->value().cols() == in_dim_,
                "Linear::forward: input width mismatch");
  return linear(x, w_, b_);
}

std::size_t parameter_count(const std::vector<Var>& params) {
  std::size_t n = 0;
  for (const auto& p : params) n += p->value().size();
  return n;
}

void copy_parameters(const std::vector<Var>& from, const std::vector<Var>& to) {
  MET_CHECK(from.size() == to.size());
  for (std::size_t i = 0; i < from.size(); ++i) {
    MET_CHECK(from[i]->value().same_shape(to[i]->value()));
    to[i]->value() = from[i]->value();
  }
}

}  // namespace metis::nn
