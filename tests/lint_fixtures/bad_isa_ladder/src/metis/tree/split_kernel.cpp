// Seeded violation for metis-lint --selftest: a kernel file that picks its
// set with its own CPU ladder instead of indexing by isa::active(). Its
// target() attribute is allowed; prose naming __builtin_cpu_supports is
// fine. Never compiled.
namespace metis::tree::detail {

__attribute__((target("avx2"))) void avx2_scan() {}
void generic_scan() {}

using Scan = void (*)();

Scan pick() {
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2")) return avx2_scan;
  return generic_scan;
}

}  // namespace metis::tree::detail
