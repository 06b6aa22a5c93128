// Negative control for metis-lint --selftest: the tanh/logistic kernels
// may be compiled per instruction set. Never compiled.
namespace metis::nn::vmath {

__attribute__((target("avx512f"))) void kernel() {}

}  // namespace metis::nn::vmath
