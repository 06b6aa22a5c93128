// Negative control for metis-lint --selftest: prose naming std::thread,
// std::async or util::ThreadPool, a core-count query and a borrowed pool
// start no thread. Never compiled.
#include <cstddef>
#include <string>
#include <thread>

namespace metis::core {

std::size_t cores() { return std::thread::hardware_concurrency(); }

std::string label() { return "no std::async here"; }

std::size_t borrow(const util::ThreadPool& pool, util::ThreadPool* alias);

}  // namespace metis::core
