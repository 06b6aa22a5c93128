// Negative control for metis-lint --selftest: the CART split-search
// kernels may be compiled per instruction set. Never compiled.
namespace metis::tree::detail {

__attribute__((target("avx2"))) void scan() {}

}  // namespace metis::tree::detail
