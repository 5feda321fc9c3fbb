// A small fixed-size worker pool: the frame server runs the requests it
// defers on one (vacd's writes, the fleet coordinator's claims and
// completions). Deliberately minimal: submit closures, wait for the
// queue to drain. Tasks run in no fixed order, so a caller that needs a
// deterministic result orders it itself.
//
// Fork safety: a pool must never be alive across a fork (the child would
// inherit locked mutexes and dead threads). The one process that forks,
// the campaign supervisor, runs no frame server.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace autovac {

class ThreadPool {
 public:
  // Spawns `num_threads` workers (at least 1).
  explicit ThreadPool(size_t num_threads);
  // Drains remaining work, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  void Submit(std::function<void()> task);

  // Blocks until the queue is empty and no worker is mid-task.
  void Wait();

  [[nodiscard]] size_t num_threads() const { return workers_.size(); }

 private:
  void WorkerLoop();

  std::mutex mutex_;
  std::condition_variable work_cv_;  // signals workers: task or shutdown
  std::condition_variable idle_cv_;  // signals Wait(): drained and idle
  std::deque<std::function<void()>> queue_;
  size_t active_ = 0;
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace autovac
