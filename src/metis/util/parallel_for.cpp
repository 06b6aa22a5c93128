#include "metis/util/parallel_for.h"

#include <algorithm>
#include <atomic>

#include "metis/util/exception_slot.h"
#include "metis/util/thread_pool.h"

namespace metis::util {

void parallel_for(std::size_t count, std::size_t workers,
                  const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  if (workers <= 1 || count == 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  ExceptionSlot error;
  ThreadPool pool(std::min(workers, count));
  for (std::size_t w = 0; w < pool.size(); ++w) {
    pool.submit([&] {
      try {
        for (std::size_t i = next.fetch_add(1); i < count;
             i = next.fetch_add(1)) {
          if (error.failed()) return;
          fn(i);
        }
      } catch (...) {
        error.capture();
      }
    });
  }
  pool.wait_idle();
  error.rethrow_if_set();
}

}  // namespace metis::util
