// Negative control for metis-lint --selftest: the one CPU probe lives
// here. Never compiled.
namespace metis::isa {

int probe() {
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f")) return 3;
  if (__builtin_cpu_supports("avx2")) return 2;
  return 1;
}

}  // namespace metis::isa
