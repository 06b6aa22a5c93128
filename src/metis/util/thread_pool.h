// Minimal fixed-size worker pool.
//
// Backs metis::serve::Service's job execution, the library's one level of
// parallelism: metis-lint check 11 bans constructing a pool (or starting a
// thread) outside serve/. Tasks are run in FIFO submission order (each worker
// pops the oldest queued task); there is deliberately no future/result
// plumbing — callers that need completion signalling layer their own
// (Service's job table does).
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "metis/util/mutex.h"

namespace metis::util {

class ThreadPool {
 public:
  // Spawns `threads` workers (at least 1).
  explicit ThreadPool(std::size_t threads);
  // Finishes every queued task, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Enqueues a task. Must not be called after destruction begins.
  void submit(std::function<void()> task);

  // Blocks until the queue is empty and every worker is idle.
  void wait_idle();

  [[nodiscard]] std::size_t size() const { return workers_.size(); }

 private:
  void worker_loop();

  Mutex mu_;
  CondVar work_cv_;  // workers wait for tasks
  CondVar idle_cv_;  // wait_idle() waits for drain
  std::deque<std::function<void()>> queue_ GUARDED_BY(mu_);
  std::size_t busy_ GUARDED_BY(mu_) = 0;
  bool stopping_ GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_;  // written only by the constructor
};

}  // namespace metis::util
