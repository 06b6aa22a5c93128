// Negative control for metis-lint --selftest: the GEMM kernels may be
// compiled per instruction set. Never compiled.
namespace metis::nn::gemm {

__attribute__((target("avx512f"))) void kernel() {}

}  // namespace metis::nn::gemm
