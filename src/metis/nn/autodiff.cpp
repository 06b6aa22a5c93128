#include "metis/nn/autodiff.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <utility>

#include "metis/nn/arena.h"
#include "metis/nn/gemm.h"
#include "metis/nn/vmath.h"
#include "metis/util/check.h"

namespace metis::nn {
namespace {

thread_local bool t_grad_enabled = true;

// metis-lint: begin-hot-path
// Allocates the node + control block as one fused block from the arena
// node pool (all such blocks share one size, so inside an arena::Scope a
// steady-state loop recycles them with zero mallocs).
Var alloc_node(Tensor value, bool requires_grad) {
  return std::allocate_shared<Node>(arena::NodeAllocator<Node>{},
                                    std::move(value), requires_grad);
}

// Builds an op node. With the tape off (NoGradGuard active) the node is a
// bare value holder: no parents, no backward closure. With the tape on,
// parents and the closure are recorded only when some parent actually
// requires a gradient — and both live inline in the Node, so wiring the
// tape costs no further allocations.
template <typename BackwardFn, typename... Parents>
Var make_node(Tensor value, BackwardFn&& backward, const Parents&... parents) {
  if (!t_grad_enabled) {
    return alloc_node(std::move(value), false);
  }
  const bool needs = (parents->requires_grad() || ...);
  Var node = alloc_node(std::move(value), needs);
  if (needs) {
    node->set_parents(parents...);
    node->set_backward(std::forward<BackwardFn>(backward));
  }
  return node;
}
// metis-lint: end-hot-path

// Element-wise unary node over its computed values out = f(a):
// da += g(a, out) * dout.
template <typename BwdFn>
Var unary_node(const Var& a, Tensor out, BwdFn dfdx_of_in_out) {
  return make_node(std::move(out),
                   [f = std::move(dfdx_of_in_out)](Node& n) {
                     auto& pa = *n.parents()[0];
                     if (!pa.requires_grad()) return;
                     auto in = pa.value().data();
                     auto out = n.value().data();
                     auto g = n.grad().data();
                     auto pg = pa.grad().data();
                     for (std::size_t i = 0; i < in.size(); ++i) {
                       pg[i] += f(in[i], out[i]) * g[i];
                     }
                   },
                   a);
}

// Element-wise unary op helper: out = f(a), da += g(a, out) * dout.
template <typename FwdFn, typename BwdFn>
Var unary(const Var& a, FwdFn f, BwdFn dfdx_of_in_out) {
  Tensor out(a->value().rows(), a->value().cols());
  auto in = a->value().data();
  auto o = out.data();
  for (std::size_t i = 0; i < in.size(); ++i) o[i] = f(in[i]);
  return unary_node(a, std::move(out), std::move(dfdx_of_in_out));
}

}  // namespace

bool grad_enabled() { return t_grad_enabled; }

NoGradGuard::NoGradGuard() : saved_(t_grad_enabled) {
  t_grad_enabled = false;
}

NoGradGuard::~NoGradGuard() { t_grad_enabled = saved_; }

Node::Node(Tensor value, bool requires_grad)
    : value_(std::move(value)), requires_grad_(requires_grad) {}

Var constant(Tensor value) { return alloc_node(std::move(value), false); }

Var parameter(Tensor value) { return alloc_node(std::move(value), true); }

Var matmul(const Var& a, const Var& b) {
  Tensor out = Tensor::matmul(a->value(), b->value());
  return make_node(
      std::move(out),
      [](Node& n) {
        // dA += dY * B^T and dB += A^T * dY through nn/gemm.h's
        // transpose kernels — no transposed() copies on the backward path.
        auto& pa = *n.parents()[0];
        auto& pb = *n.parents()[1];
        if (pa.requires_grad()) {
          gemm::matmul_transB_acc(n.grad(), pb.value(), pa.grad());
        }
        if (pb.requires_grad()) {
          gemm::matmul_transA_acc(pa.value(), n.grad(), pb.grad());
        }
      },
      a, b);
}

// metis-lint: begin-hot-path
Var matmul(const CsrMatrix& a, const Var& b) {
  Tensor out = sparse::matmul(a, b->value());
  const CsrMatrix* sa = &a;
  return make_node(
      std::move(out),
      [sa](Node& n) {
        auto& pb = *n.parents()[0];
        if (pb.requires_grad()) {
          sparse::matmul_transA_acc(*sa, n.grad(), pb.grad());
        }
      },
      b);
}
// metis-lint: end-hot-path

Var linear(const Var& x, const Var& w, const Var& b) {
  MET_CHECK_MSG(x->value().cols() == w->value().rows(),
                "linear: input width mismatch");
  MET_CHECK_MSG(
      b->value().rows() == 1 && b->value().cols() == w->value().cols(),
      "linear: bias must be 1 x out_dim");
  Tensor out = gemm::matmul_add_bias(x->value(), w->value(), b->value());
  return make_node(
      std::move(out),
      [](Node& n) {
        auto& px = *n.parents()[0];
        auto& pw = *n.parents()[1];
        auto& pb = *n.parents()[2];
        if (px.requires_grad()) {
          gemm::matmul_transB_acc(n.grad(), pw.value(), px.grad());
        }
        if (pw.requires_grad()) {
          gemm::matmul_transA_acc(px.value(), n.grad(), pw.grad());
        }
        if (pb.requires_grad()) {
          // Row-major accumulation order, matching add()'s broadcast
          // backward.
          auto bg = pb.grad().data();
          auto g = n.grad().data();
          const std::size_t cols = bg.size();
          for (std::size_t i = 0; i < g.size(); i += cols) {
            for (std::size_t c = 0; c < cols; ++c) bg[c] += g[i + c];
          }
        }
      },
      x, w, b);
}

Var add(const Var& a, const Var& b) {
  const Tensor& av = a->value();
  const Tensor& bv = b->value();
  const bool broadcast = bv.rows() == 1 && av.rows() > 1;
  MET_CHECK_MSG(av.cols() == bv.cols() && (av.rows() == bv.rows() || broadcast),
                "add: incompatible shapes");
  Tensor out = av;
  for (std::size_t r = 0; r < out.rows(); ++r) {
    for (std::size_t c = 0; c < out.cols(); ++c) {
      out(r, c) += bv(broadcast ? 0 : r, c);
    }
  }
  return make_node(
      std::move(out),
      [broadcast](Node& n) {
        auto& pa = *n.parents()[0];
        auto& pb = *n.parents()[1];
        if (pa.requires_grad()) pa.grad() += n.grad();
        if (pb.requires_grad()) {
          if (!broadcast) {
            pb.grad() += n.grad();
          } else {
            for (std::size_t r = 0; r < n.grad().rows(); ++r) {
              for (std::size_t c = 0; c < n.grad().cols(); ++c) {
                pb.grad()(0, c) += n.grad()(r, c);
              }
            }
          }
        }
      },
      a, b);
}

Var sub(const Var& a, const Var& b) {
  MET_CHECK(a->value().same_shape(b->value()));
  Tensor out = a->value();
  out -= b->value();
  return make_node(
      std::move(out),
      [](Node& n) {
        auto& pa = *n.parents()[0];
        auto& pb = *n.parents()[1];
        if (pa.requires_grad()) pa.grad() += n.grad();
        if (pb.requires_grad()) pb.grad() -= n.grad();
      },
      a, b);
}

Var mul(const Var& a, const Var& b) {
  MET_CHECK(a->value().same_shape(b->value()));
  Tensor out = a->value();
  auto bd = b->value().data();
  auto od = out.data();
  for (std::size_t i = 0; i < od.size(); ++i) od[i] *= bd[i];
  return make_node(
      std::move(out),
      [](Node& n) {
        auto& pa = *n.parents()[0];
        auto& pb = *n.parents()[1];
        auto g = n.grad().data();
        if (pa.requires_grad()) {
          auto pg = pa.grad().data();
          auto bv = pb.value().data();
          for (std::size_t i = 0; i < g.size(); ++i) pg[i] += bv[i] * g[i];
        }
        if (pb.requires_grad()) {
          auto pg = pb.grad().data();
          auto av = pa.value().data();
          for (std::size_t i = 0; i < g.size(); ++i) pg[i] += av[i] * g[i];
        }
      },
      a, b);
}

Var scale(const Var& a, double s) {
  return unary(
      a, [s](double x) { return x * s; },
      [s](double, double) { return s; });
}

Var add_scalar(const Var& a, double s) {
  return unary(
      a, [s](double x) { return x + s; },
      [](double, double) { return 1.0; });
}

Var relu(const Var& a) {
  return unary(
      a, [](double x) { return x > 0.0 ? x : 0.0; },
      [](double x, double) { return x > 0.0 ? 1.0 : 0.0; });
}

Var tanh_op(const Var& a) {
  Tensor out(a->value().rows(), a->value().cols());
  vmath::tanh(a->value().data(), out.data());
  return unary_node(a, std::move(out),
                    [](double, double y) { return 1.0 - y * y; });
}

Var sigmoid(const Var& a) {
  Tensor out(a->value().rows(), a->value().cols());
  vmath::logistic(a->value().data(), out.data());
  return unary_node(a, std::move(out),
                    [](double, double y) { return y * (1.0 - y); });
}

Var log_op(const Var& a, double eps) {
  return unary(
      a, [eps](double x) { return std::log(std::max(x, eps)); },
      [eps](double x, double) { return 1.0 / std::max(x, eps); });
}

Var square(const Var& a) {
  return unary(
      a, [](double x) { return x * x; },
      [](double x, double) { return 2.0 * x; });
}

Var softmax_rows(const Var& a) {
  Tensor out = a->value();
  for (std::size_t r = 0; r < out.rows(); ++r) {
    double mx = out(r, 0);
    for (std::size_t c = 1; c < out.cols(); ++c) mx = std::max(mx, out(r, c));
    double denom = 0.0;
    for (std::size_t c = 0; c < out.cols(); ++c) {
      out(r, c) = std::exp(out(r, c) - mx);
      denom += out(r, c);
    }
    for (std::size_t c = 0; c < out.cols(); ++c) out(r, c) /= denom;
  }
  return make_node(
      std::move(out),
      [](Node& n) {
        auto& pa = *n.parents()[0];
        if (!pa.requires_grad()) return;
        // dL/dx_i = y_i * (dL/dy_i - Σ_j dL/dy_j * y_j), per row.
        const std::size_t cols = n.value().cols();
        auto y = n.value().data();
        auto g = n.grad().data();
        auto pg = pa.grad().data();
        for (std::size_t i = 0; i < y.size(); i += cols) {
          double dot = 0.0;
          for (std::size_t c = i; c < i + cols; ++c) dot += g[c] * y[c];
          for (std::size_t c = i; c < i + cols; ++c) {
            pg[c] += y[c] * (g[c] - dot);
          }
        }
      },
      a);
}

Var log_softmax_rows(const Var& a) {
  Tensor out = a->value();
  for (std::size_t r = 0; r < out.rows(); ++r) {
    double mx = out(r, 0);
    for (std::size_t c = 1; c < out.cols(); ++c) mx = std::max(mx, out(r, c));
    double denom = 0.0;
    for (std::size_t c = 0; c < out.cols(); ++c) {
      denom += std::exp(out(r, c) - mx);
    }
    const double lse = mx + std::log(denom);
    for (std::size_t c = 0; c < out.cols(); ++c) out(r, c) -= lse;
  }
  return make_node(
      std::move(out),
      [](Node& n) {
        auto& pa = *n.parents()[0];
        if (!pa.requires_grad()) return;
        // dL/dx_i = dL/dy_i - softmax(x)_i * Σ_j dL/dy_j, per row.
        const Tensor& logp = n.value();
        for (std::size_t r = 0; r < logp.rows(); ++r) {
          double gsum = 0.0;
          for (std::size_t c = 0; c < logp.cols(); ++c) gsum += n.grad()(r, c);
          for (std::size_t c = 0; c < logp.cols(); ++c) {
            pa.grad()(r, c) += n.grad()(r, c) - std::exp(logp(r, c)) * gsum;
          }
        }
      },
      a);
}

Var concat_cols(const Var& a, const Var& b) {
  const Tensor& av = a->value();
  const Tensor& bv = b->value();
  MET_CHECK_MSG(av.rows() == bv.rows(), "concat_cols: row count must match");
  Tensor out(av.rows(), av.cols() + bv.cols());
  for (std::size_t r = 0; r < av.rows(); ++r) {
    for (std::size_t c = 0; c < av.cols(); ++c) out(r, c) = av(r, c);
    for (std::size_t c = 0; c < bv.cols(); ++c) {
      out(r, av.cols() + c) = bv(r, c);
    }
  }
  const std::size_t split = av.cols();
  return make_node(
      std::move(out),
      [split](Node& n) {
        auto& pa = *n.parents()[0];
        auto& pb = *n.parents()[1];
        for (std::size_t r = 0; r < n.grad().rows(); ++r) {
          if (pa.requires_grad()) {
            for (std::size_t c = 0; c < split; ++c) {
              pa.grad()(r, c) += n.grad()(r, c);
            }
          }
          if (pb.requires_grad()) {
            for (std::size_t c = split; c < n.grad().cols(); ++c) {
              pb.grad()(r, c - split) += n.grad()(r, c);
            }
          }
        }
      },
      a, b);
}

Var transpose(const Var& a) {
  return make_node(a->value().transposed(),
                   [](Node& n) {
                     auto& pa = *n.parents()[0];
                     if (!pa.requires_grad()) return;
                     pa.grad() += n.grad().transposed();
                   },
                   a);
}

Var reshape(const Var& a, std::size_t rows, std::size_t cols) {
  MET_CHECK_MSG(rows * cols == a->value().size(),
                "reshape must preserve element count");
  Tensor out(rows, cols,
             Tensor::Buffer(a->value().data().begin(),
                            a->value().data().end()));
  return make_node(std::move(out),
                   [](Node& n) {
                     auto& pa = *n.parents()[0];
                     if (!pa.requires_grad()) return;
                     auto g = n.grad().data();
                     auto pg = pa.grad().data();
                     for (std::size_t i = 0; i < g.size(); ++i) pg[i] += g[i];
                   },
                   a);
}

Var sum_all(const Var& a) {
  Tensor out(1, 1, a->value().sum());
  return make_node(std::move(out),
                   [](Node& n) {
                     auto& pa = *n.parents()[0];
                     if (!pa.requires_grad()) return;
                     const double g = n.grad()(0, 0);
                     for (double& v : pa.grad().data()) v += g;
                   },
                   a);
}

Var mean_all(const Var& a) {
  const double n_elems = static_cast<double>(a->value().size());
  MET_CHECK(n_elems > 0);
  return scale(sum_all(a), 1.0 / n_elems);
}

Var rows_dot(const Var& a, const Var& b) {
  MET_CHECK(a->value().same_shape(b->value()));
  Tensor out(a->value().rows(), 1);
  for (std::size_t r = 0; r < out.rows(); ++r) {
    double s = 0.0;
    for (std::size_t c = 0; c < a->value().cols(); ++c) {
      s += a->value()(r, c) * b->value()(r, c);
    }
    out(r, 0) = s;
  }
  return make_node(
      std::move(out),
      [](Node& n) {
        auto& pa = *n.parents()[0];
        auto& pb = *n.parents()[1];
        for (std::size_t r = 0; r < n.grad().rows(); ++r) {
          const double g = n.grad()(r, 0);
          for (std::size_t c = 0; c < pa.value().cols(); ++c) {
            if (pa.requires_grad()) pa.grad()(r, c) += pb.value()(r, c) * g;
            if (pb.requires_grad()) pb.grad()(r, c) += pa.value()(r, c) * g;
          }
        }
      },
      a, b);
}

Var mse_loss(const Var& pred, const Var& target) {
  return mean_all(square(sub(pred, target)));
}

Var kl_divergence_rows(const Var& target_probs, const Var& pred_probs) {
  MET_CHECK(target_probs->value().same_shape(pred_probs->value()));
  // KL(t || p) = Σ t (log t − log p); mean over rows. The log t term is
  // constant w.r.t. p but is kept so the loss value matches the textbook
  // definition (zero at equality).
  Var ratio = sub(log_op(target_probs), log_op(pred_probs));
  Var per_row = rows_dot(target_probs, ratio);
  return mean_all(per_row);
}

Var binary_entropy_sum(const Var& w, double eps) {
  // -Σ [w log w + (1-w) log(1-w)]
  Var one_minus = add_scalar(scale(w, -1.0), 1.0);
  Var term1 = mul(w, log_op(w, eps));
  Var term2 = mul(one_minus, log_op(one_minus, eps));
  return scale(sum_all(add(term1, term2)), -1.0);
}

Var gated_sigmoid(const Var& x, const Var& support) {
  MET_CHECK(x->value().same_shape(support->value()));
  MET_CHECK_MSG(!support->requires_grad(),
                "gated_sigmoid: support must be a constant");
  // Support entries are exactly 0 or 1 (the incidence contract), so the
  // gated product is sigmoid(x) or exactly 0 — identical to
  // mul(support, sigmoid(x)). The logits on the support are gathered
  // into one span, so the masked-out entries cost no logistic.
  auto in = x->value().data();
  auto sv = support->value().data();
  Tensor gate(1, in.size());
  auto g = gate.data();
  std::size_t n = 0;
  for (std::size_t i = 0; i < in.size(); ++i) {
    if (sv[i] != 0.0) g[n++] = in[i];
  }
  vmath::logistic(g.first(n), g.first(n));
  Tensor out(x->value().rows(), x->value().cols(), 0.0);
  auto o = out.data();
  for (std::size_t i = 0, j = 0; i < o.size(); ++i) {
    if (sv[i] != 0.0) o[i] = g[j++];
  }
  return make_node(
      std::move(out),
      [](Node& n) {
        auto& px = *n.parents()[0];
        auto& ps = *n.parents()[1];
        if (!px.requires_grad()) return;
        auto sv = ps.value().data();
        auto y = n.value().data();
        auto g = n.grad().data();
        auto pg = px.grad().data();
        for (std::size_t i = 0; i < y.size(); ++i) {
          if (sv[i] != 0.0) pg[i] += y[i] * (1.0 - y[i]) * g[i];
        }
      },
      x, support);
}

// metis-lint: begin-hot-path
Var gated_sigmoid(const Var& x, const CsrMatrix& support) {
  MET_CHECK(x->value().rows() == 1 && x->value().cols() == support.nnz());
  Tensor gate(1, support.nnz());
  vmath::logistic(x->value().data(), gate.data());
  Tensor out(support.rows(), support.cols(), 0.0);
  auto g = gate.data();
  auto off = support.offsets();
  auto o = out.data();
  for (std::size_t j = 0; j < g.size(); ++j) o[off[j]] = g[j];
  const CsrMatrix* sp = &support;
  return make_node(
      std::move(out),
      [sp](Node& n) {
        auto& px = *n.parents()[0];
        if (!px.requires_grad()) return;
        auto off = sp->offsets();
        auto y = n.value().data();
        auto g = n.grad().data();
        auto pg = px.grad().data();
        for (std::size_t j = 0; j < off.size(); ++j) {
          const std::size_t i = off[j];
          pg[j] += y[i] * (1.0 - y[i]) * g[i];
        }
      },
      x);
}
// metis-lint: end-hot-path

Var kl_divergence_rows_cached(const Var& target_probs, const Var& log_target,
                              const Var& pred_probs, double eps) {
  const Tensor& t = target_probs->value();
  const Tensor& lt = log_target->value();
  const Tensor& p = pred_probs->value();
  MET_CHECK(t.same_shape(p) && t.same_shape(lt));
  MET_CHECK_MSG(!target_probs->requires_grad() && !log_target->requires_grad(),
                "kl_divergence_rows_cached: target must be constant");
  // Same per-element chain as kl_divergence_rows: per row,
  // Σ_j t_j (log t_j − log p_j); mean over rows.
  const double inv_rows = 1.0 / static_cast<double>(t.rows());
  double total = 0.0;
  for (std::size_t r = 0; r < t.rows(); ++r) {
    double s = 0.0;
    for (std::size_t c = 0; c < t.cols(); ++c) {
      s += t(r, c) * (lt(r, c) - std::log(std::max(p(r, c), eps)));
    }
    total += s;
  }
  Tensor out(1, 1, total * inv_rows);
  return make_node(
      std::move(out),
      [eps, inv_rows](Node& n) {
        auto& pt = *n.parents()[0];
        auto& pp = *n.parents()[1];
        if (!pp.requires_grad()) return;
        const double g = n.grad()(0, 0) * inv_rows;
        auto t = pt.value().data();
        auto p = pp.value().data();
        auto pg = pp.grad().data();
        for (std::size_t i = 0; i < t.size(); ++i) {
          pg[i] -= g * t[i] / std::max(p[i], eps);
        }
      },
      target_probs, pred_probs);
}

// metis-lint: begin-hot-path
Var mask_regularizer(const Var& w, const CsrMatrix& support, double c1,
                     double c2, double* sum_out, double* entropy_out) {
  // A constant, not a parameter: the backward closure has room for the
  // support pointer and c1/c2 only.
  static constexpr double eps = 1e-8;
  const Tensor& wv = w->value();
  MET_CHECK(wv.rows() == support.rows() && wv.cols() == support.cols());
  auto wd = wv.data();
  auto off = support.offsets();
  // ||W|| = Σ w (w >= 0 by the gating) and H(W) = -Σ [w log w +
  // (1-w) log(1-w)], both over the support entries in row-major order:
  // a masked-out entry is exactly 0 and contributes exactly 0 to either
  // sum, and the order fixes the rounding of both. The same pass keeps
  // each entry's d/dw [w log w + (1-w) log(1-w)] (with the eps floors the
  // composite log_op backward applies) from the two logs it has just
  // taken, so the backward pays no log of its own; it reaches the
  // closure as a constant second parent, entry j at dterm[j].
  Tensor dterm(1, off.size());
  auto dt = dterm.data();
  double sum = 0.0;
  double ent = 0.0;
  for (std::size_t j = 0; j < off.size(); ++j) {
    const double x = wd[off[j]];
    const double lw = std::log(std::max(x, eps));
    const double l1w = std::log(std::max(1.0 - x, eps));
    sum += x;
    ent += x * lw + (1.0 - x) * l1w;
    dt[j] = lw + x / std::max(x, eps) - l1w -
            (1.0 - x) / std::max(1.0 - x, eps);
  }
  ent = -ent;
  if (sum_out != nullptr) *sum_out = sum;
  if (entropy_out != nullptr) *entropy_out = ent;
  Tensor out(1, 1, c1 * sum + c2 * ent);
  const CsrMatrix* sp = &support;
  return make_node(
      std::move(out),
      [sp, c1, c2](Node& n) {
        auto& pw = *n.parents()[0];
        if (!pw.requires_grad()) return;
        const double g = n.grad()(0, 0);
        auto off = sp->offsets();
        auto dt = n.parents()[1]->value().data();
        auto pg = pw.grad().data();
        for (std::size_t j = 0; j < off.size(); ++j) {
          pg[off[j]] += g * (c1 - c2 * dt[j]);
        }
      },
      w, constant(std::move(dterm)));
}
// metis-lint: end-hot-path

// metis-lint: begin-hot-path
void backward(const Var& root) {
  MET_CHECK_MSG(root->value().rows() == 1 && root->value().cols() == 1,
                "backward() requires a scalar root");
  // Iterative post-order DFS for the reverse topological order. The
  // visited test is an epoch mark stamped into each node (every sweep
  // draws a process-unique epoch) and the traversal scratch is
  // thread-local with retained capacity, so a steady-state training or
  // mask-optimization loop pays zero allocations per backward after its
  // first sweep. Concurrent backward() calls are fine on disjoint graphs;
  // sharing nodes between simultaneous sweeps was already a data race on
  // the accumulated gradients.
  static std::atomic<std::uint64_t> g_epoch{0};
  const std::uint64_t epoch =
      g_epoch.fetch_add(1, std::memory_order_relaxed) + 1;
  thread_local std::vector<Node*> order;
  thread_local std::vector<std::pair<Node*, std::size_t>> stack;
  order.clear();
  stack.clear();
  stack.emplace_back(root.get(), 0);
  root->set_visit_mark(epoch);
  while (!stack.empty()) {
    auto& [node, child] = stack.back();
    if (child < node->parents().size()) {
      Node* next = node->parents()[child].get();
      ++child;
      if (next->requires_grad() && next->visit_mark() != epoch) {
        next->set_visit_mark(epoch);
        stack.emplace_back(next, 0);
      }
    } else {
      order.push_back(node);
      stack.pop_back();
    }
  }
  root->grad()(0, 0) = 1.0;
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    (*it)->run_backward();
  }
}
// metis-lint: end-hot-path

}  // namespace metis::nn
