// Negative control for metis-lint --selftest: the pool itself starts its
// workers. Never compiled.
#include <thread>
#include <vector>

namespace metis::util {

class ThreadPool {
 public:
  explicit ThreadPool(int threads) {
    for (int i = 0; i < threads; ++i) workers_.emplace_back([] {});
  }

 private:
  std::vector<std::thread> workers_;
};

}  // namespace metis::util
