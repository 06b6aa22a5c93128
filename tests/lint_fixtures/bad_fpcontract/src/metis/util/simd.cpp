// Seeded violations for metis-lint --selftest: ISA-specific code outside
// the GEMM kernels, where -ffp-contract=off does not reach. Never compiled.
namespace metis::util {
// Prose naming __attribute__((target("avx2"))) is fine.
double dot(const double* a, const double* b, int n);

__attribute__((target("avx512f"))) double sum(const double* a, int n) {
  return n > 0 ? a[0] : 0.0;
}

[[gnu::target_clones("avx2", "default")]] void scale(double* a, int n);

}  // namespace metis::util
