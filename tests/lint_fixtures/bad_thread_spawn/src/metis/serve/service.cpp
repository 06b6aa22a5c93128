// Negative control for metis-lint --selftest: the job service owns the
// library's one pool. Never compiled.
#include <cstddef>

#include "metis/util/thread_pool.h"

namespace metis::serve {

class Service {
 public:
  explicit Service(std::size_t workers) : pool_(workers) {}

 private:
  util::ThreadPool pool_;
};

}  // namespace metis::serve
