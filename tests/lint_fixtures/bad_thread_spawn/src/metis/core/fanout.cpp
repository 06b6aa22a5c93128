// Seeded violation for metis-lint --selftest: a fan-out inside a job,
// a second level of parallelism under serve::Service's pool. Never
// compiled.
#include <cstddef>
#include <functional>
#include <thread>
#include <vector>

namespace metis::core {

void fit_clusters(std::size_t k, const std::function<void(std::size_t)>& fit) {
  std::vector<std::size_t> ids(k);
  for (std::size_t c = 0; c < k; ++c) ids[c] = c;
  std::thread helper([&] { fit(ids.back()); });
  for (std::size_t c = 0; c + 1 < k; ++c) fit(ids[c]);
  helper.join();
}

}  // namespace metis::core
