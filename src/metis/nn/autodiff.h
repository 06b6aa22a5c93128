// Tape-based reverse-mode automatic differentiation over Tensors.
//
// This is the training engine for every DNN teacher in the repository
// (Pensieve's actor-critic, AuTO's agents, RouteNet*'s latency predictor)
// and for the hypergraph mask optimization of §4.2, which backpropagates
// the Figure-6 loss through the networking model into the mask logits W'.
//
// Usage:
//   Var x = constant(...);          // leaf without gradient
//   Var w = parameter(...);         // leaf with gradient
//   Var y = matmul(x, w);           // builds the tape implicitly
//   backward(y);                    // accumulates w->grad()
//
// Vars are shared_ptrs to immutable-shape nodes; the graph is a DAG and
// backward() runs one reverse topological sweep.
//
// Allocation discipline: a node and its shared_ptr control block are one
// fused block drawn from the per-thread arena node pool (nn/arena.h), the
// parents live inline, and the backward closure sits in a fixed small
// buffer — inside an arena::Scope a steady-state tape-building loop (the
// §4.2 mask optimization) performs zero fresh allocations after warm-up,
// graph metadata included (tests/alloc_test.cpp).
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "metis/nn/sparse.h"
#include "metis/nn/tensor.h"
#include "metis/util/check.h"

namespace metis::nn {

class Node;
using Var = std::shared_ptr<Node>;

namespace detail {

// metis-lint: begin-hot-path
// Fixed-capacity, never-heap-allocating closure holder for a node's
// backward function. Every op's backward lambda captures at most three
// words (a bias flag, an epsilon, the mask regularizer's CsrMatrix
// pointer and c1/c2), so a small inline buffer fits them all —
// std::function's "maybe heap" semantics would silently reintroduce a
// malloc per tape node, the very cost the node pool exists to kill. The
// static_asserts turn an oversized or non-trivial capture into a compile
// error instead of a regression.
class BackwardFn {
 public:
  static constexpr std::size_t kCapacity = 24;

  BackwardFn() = default;

  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>,
                                                        BackwardFn>>>
  BackwardFn(F&& f) {  // NOLINT(runtime/explicit)
    using Fn = std::decay_t<F>;
    static_assert(sizeof(Fn) <= kCapacity,
                  "backward closure exceeds the inline buffer; grow "
                  "kCapacity instead of falling back to the heap");
    static_assert(alignof(Fn) <= alignof(std::max_align_t));
    static_assert(std::is_trivially_copyable_v<Fn> &&
                      std::is_trivially_destructible_v<Fn>,
                  "backward closures must be trivially copyable so the "
                  "holder stays allocation- and destructor-free");
    ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
    invoke_ = [](const unsigned char* buf, Node& n) {
      (*std::launder(reinterpret_cast<const Fn*>(buf)))(n);
    };
  }

  [[nodiscard]] explicit operator bool() const { return invoke_ != nullptr; }
  void operator()(Node& n) const { invoke_(buf_, n); }

 private:
  alignas(std::max_align_t) unsigned char buf_[kCapacity] = {};
  void (*invoke_)(const unsigned char*, Node&) = nullptr;
};
// metis-lint: end-hot-path

}  // namespace detail

// Thread-local no-tape mode. While a NoGradGuard is alive, op constructors
// skip parent wiring and backward closures entirely — the graph degenerates
// to plain eager evaluation (values bitwise identical, no tape, no grads).
// Every value-returning inference entry point (PolicyNet::action_probs,
// value and act_and_values_multi, Mlp::predict_row, the Teacher batch
// default, trace collection) runs under one, and so does train_a2c's
// advantage baseline (its values are read, never differentiated); the
// training losses and the §4.2 mask optimization never do.
[[nodiscard]] bool grad_enabled();

class NoGradGuard {
 public:
  NoGradGuard();
  ~NoGradGuard();
  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;

 private:
  bool saved_;
};

class Node {
 public:
  // Widest op fan-in (linear's x, w, b). Parents live inline so wiring a
  // node never allocates; make_node static_asserts against overflow.
  static constexpr std::size_t kMaxParents = 3;

  Node(Tensor value, bool requires_grad);

  [[nodiscard]] const Tensor& value() const { return value_; }
  [[nodiscard]] Tensor& value() { return value_; }
  [[nodiscard]] bool requires_grad() const { return requires_grad_; }

  // Gradient, allocated (zero-filled) on first touch. Constants and
  // no-tape forwards never materialize one — a pure-inference pass pays
  // exactly zero gradient allocations (tests/alloc_test.cpp).
  [[nodiscard]] Tensor& grad() {
    if (!grad_allocated_) {
      grad_ = Tensor(value_.rows(), value_.cols(), 0.0);
      grad_allocated_ = true;
    }
    return grad_;
  }
  // Read-only view; only valid once the gradient exists (the eager
  // layout guaranteed a value-shaped zero tensor here — fail loudly
  // rather than hand back an empty 0x0 one).
  [[nodiscard]] const Tensor& grad() const {
    MET_CHECK_MSG(grad_allocated_, "grad() read before any backward touch");
    return grad_;
  }
  [[nodiscard]] bool has_grad() const { return grad_allocated_; }

  // No-op on grad-less nodes (constants, untouched parameters): there is
  // nothing to clear, and filling would defeat the lazy allocation.
  void zero_grad() {
    if (grad_allocated_) grad_.fill(0.0);
  }

  // Internal wiring used by the op constructors below. Parents are stored
  // inline (no vector, no heap) and the backward closure in a fixed
  // small-buffer holder — wiring a tape node performs zero allocations
  // beyond the node block itself, which comes from the arena node pool.
  template <typename... Ps>
  void set_parents(const Ps&... ps) {
    static_assert(sizeof...(Ps) <= kMaxParents, "grow Node::kMaxParents");
    std::size_t i = 0;
    ((parents_[i++] = ps), ...);
    parent_count_ = static_cast<std::uint8_t>(sizeof...(Ps));
  }
  void set_backward(detail::BackwardFn fn) { backward_ = fn; }
  [[nodiscard]] std::span<const Var> parents() const {
    return {parents_.data(), parent_count_};
  }
  void run_backward() { if (backward_) backward_(*this); }

  // Traversal mark for backward()'s visited test: a node is on the
  // current sweep's tape iff its mark equals that sweep's globally unique
  // epoch. Replaces a per-call hash set (and its allocations). Internal
  // to backward(); concurrent backward() calls must operate on disjoint
  // graphs — the same contract grad accumulation already imposes.
  [[nodiscard]] std::uint64_t visit_mark() const { return visit_mark_; }
  void set_visit_mark(std::uint64_t epoch) { visit_mark_ = epoch; }

 private:
  Tensor value_;
  Tensor grad_;
  bool requires_grad_;
  bool grad_allocated_ = false;
  std::uint8_t parent_count_ = 0;
  std::uint64_t visit_mark_ = 0;
  std::array<Var, kMaxParents> parents_;
  detail::BackwardFn backward_;
};

// ---- Leaves ----------------------------------------------------------------

// Leaf with no gradient (inputs, targets).
[[nodiscard]] Var constant(Tensor value);
// Leaf that accumulates gradient (weights, mask logits).
[[nodiscard]] Var parameter(Tensor value);

// ---- Ops -------------------------------------------------------------------

[[nodiscard]] Var matmul(const Var& a, const Var& b);
// Constant-sparse x dense product a * b through nn::sparse::matmul; the
// backward accumulates db += a^T * dY. Bitwise identical to the dense
// matmul on a's dense source. The tape keeps a pointer to `a`: it must
// outlive every backward() through the returned node.
[[nodiscard]] Var matmul(const CsrMatrix& a, const Var& b);
// Fused affine map x * w + b with the 1 x C bias row broadcast over rows —
// one node where Linear's forward previously built matmul + add. Forward
// and backward are bitwise identical to add(matmul(x, w), b), but the
// backward runs nn/gemm.h's transpose kernels instead of
// materializing transposed() copies.
[[nodiscard]] Var linear(const Var& x, const Var& w, const Var& b);
// Element-wise add; also supports adding a 1 x C bias row to an R x C matrix.
[[nodiscard]] Var add(const Var& a, const Var& b);
[[nodiscard]] Var sub(const Var& a, const Var& b);
// Element-wise (Hadamard) product; shapes must match.
[[nodiscard]] Var mul(const Var& a, const Var& b);
[[nodiscard]] Var scale(const Var& a, double s);
[[nodiscard]] Var add_scalar(const Var& a, double s);

[[nodiscard]] Var relu(const Var& a);
// tanh and the logistic sigmoid run nn/vmath.h's kernels (within 3 ulp,
// the same bits on every CPU); the sigmoid gatings below do too.
[[nodiscard]] Var tanh_op(const Var& a);
[[nodiscard]] Var sigmoid(const Var& a);
// Natural log with an epsilon floor for numerical safety: log(max(x, eps)).
[[nodiscard]] Var log_op(const Var& a, double eps = 1e-12);
[[nodiscard]] Var square(const Var& a);

// Row-wise softmax / log-softmax (each row treated as one distribution).
[[nodiscard]] Var softmax_rows(const Var& a);
[[nodiscard]] Var log_softmax_rows(const Var& a);

// Horizontal concatenation [a | b]; rows must match. Used by the modified
// Pensieve structure in §6.2 (feeding r_t directly into the output layer).
[[nodiscard]] Var concat_cols(const Var& a, const Var& b);

// Matrix transpose.
[[nodiscard]] Var transpose(const Var& a);

// Reshape preserving row-major element order (rows*cols must be unchanged).
[[nodiscard]] Var reshape(const Var& a, std::size_t rows, std::size_t cols);

// Reductions to a 1 x 1 scalar node.
[[nodiscard]] Var sum_all(const Var& a);
[[nodiscard]] Var mean_all(const Var& a);

// Row-wise dot product of equally shaped matrices -> N x 1 column.
// sum_j a[i][j] * b[i][j]. Used to pick log π(a|s) via one-hot actions.
[[nodiscard]] Var rows_dot(const Var& a, const Var& b);

// ---- Composite losses -------------------------------------------------------

// Mean squared error between two equally shaped tensors (scalar output).
[[nodiscard]] Var mse_loss(const Var& pred, const Var& target);

// KL(target || pred) for row-wise distributions, mean over rows (scalar).
// Matches Eq. 6's discrete divergence D(Y_W, Y_I) with Y_I as target.
[[nodiscard]] Var kl_divergence_rows(const Var& target_probs,
                                     const Var& pred_probs);

// Binary entropy sum: -Σ w log w + (1-w) log(1-w), per Eq. 8. Input values
// must lie in [0, 1]; a small eps keeps logs finite at the boundary.
[[nodiscard]] Var binary_entropy_sum(const Var& w, double eps = 1e-8);

// ---- Fused Figure-6 ops -----------------------------------------------------
//
// The §4.2 mask optimization runs its loss hundreds of times per job; the
// fused ops below collapse its per-step composite subgraphs into single
// nodes and restrict the work to the hypergraph's support, which is what
// makes a mask-optimization step cheap enough to serve at production
// rates (metisbench's core.mask_step_us). Each is the drop-in equivalent
// of the composite it replaces: identical forward values, the same
// mathematical gradient (checked against finite differences in
// tests/nn_test.cpp).
//
// The CsrMatrix overloads index the support through its stored entries
// (nn/sparse.h) instead of scanning the dense |E| x |V| box. They keep a
// pointer to the CsrMatrix in the tape, not a copy: it must outlive every
// backward() through the returned node.

// Gating (Eq. 9): out = support ∘ sigmoid(x), exactly 0 where support is
// 0 whatever x holds there.
// Support entries must be 0 or 1 — the incidence matrix's contract — and
// carry no gradient.
[[nodiscard]] Var gated_sigmoid(const Var& x, const Var& support);

// Gating over the support's stored entries: x is 1 x nnz, one logit per
// entry in the support's row-major order, and out is the dense
// support.rows() x support.cols() mask with sigmoid(x_j) at entry j's
// offset and exactly 0 elsewhere — bitwise the dense overload's output
// for the same logits on the support's dense source. Stored entries must
// be 1.
[[nodiscard]] Var gated_sigmoid(const Var& x, const CsrMatrix& support);

// KL(target || pred) mean over rows (Eq. 6) with log(target) hoisted:
// the target distribution is frozen across the whole optimization, so
// its per-entry logs are paid once instead of every step. `log_target`
// must equal log_op(target_probs, eps).
[[nodiscard]] Var kl_divergence_rows_cached(const Var& target_probs,
                                            const Var& log_target,
                                            const Var& pred_probs,
                                            double eps = 1e-12);

// Fused regularizer c1·||W|| + c2·H(W) (Eqs. 7 + 8) over the dense mask
// w's support entries only (a zero-mask entry contributes exactly 0 to
// either term). Both sums run in the support's row-major entry order.
// The logs are floored at 1e-8, as binary_entropy_sum's default eps.
// `sum_out` / `entropy_out`, when non-null, receive the raw Σ W and H(W)
// of this forward — the Fig. 30 diagnostics — without extra nodes.
[[nodiscard]] Var mask_regularizer(const Var& w, const CsrMatrix& support,
                                   double c1, double c2,
                                   double* sum_out = nullptr,
                                   double* entropy_out = nullptr);

// ---- Engine ----------------------------------------------------------------

// Runs reverse-mode accumulation from a scalar (1 x 1) root. Seeds the root
// gradient with 1 and sweeps the tape once. Gradients accumulate; call
// zero_grad on parameters between steps (optimizers do this for you).
void backward(const Var& root);

}  // namespace metis::nn
