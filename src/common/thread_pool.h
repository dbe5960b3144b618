// A small reusable worker pool for the parallel carving pipeline.
//
// Design constraints: fixed thread count chosen at construction (forensic
// workloads size the pool once per run), FIFO task queue, and a Wait()
// barrier so an orchestrating thread can submit a wave of independent
// tasks and block until the wave drains. Tasks must not throw; the
// library is no-exception style throughout.
//
// Concurrency contract: Submit and Wait belong to one orchestrating
// thread; worker threads only execute tasks. ParallelFor and OrderedFor
// wait only for the tasks they submitted themselves, so several threads
// may call them on one pool at once without waiting on each other's work.
// Task completion is published under the pool mutex, so anything a task
// wrote before finishing happens-before the wait that observes it.
#ifndef DBFA_COMMON_THREAD_POOL_H_
#define DBFA_COMMON_THREAD_POOL_H_

#include <cstddef>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "common/mutex.h"

namespace dbfa {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers; 0 means hardware concurrency.
  explicit ThreadPool(size_t num_threads = 0);

  /// Drains the queue, then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t thread_count() const { return threads_.size(); }

  /// Enqueues a task. Never blocks on task execution.
  void Submit(std::function<void()> task);

  /// Blocks until every submitted task has finished.
  void Wait();

  /// Submits body(0) … body(n-1) and waits for those n tasks only.
  void ParallelFor(size_t n, const std::function<void(size_t)>& body);

  /// Pipelined ordered loop. produce(i) runs on the pool for every i in
  /// [0, n), at most `window` indices ahead of the consumer; consume(i)
  /// runs on the calling thread strictly in index order, each once
  /// produce(i) has finished. When consume returns false nothing further
  /// is submitted. Returns once every submitted produce call has finished;
  /// like ParallelFor it waits for its own tasks only.
  void OrderedFor(size_t n, size_t window,
                  const std::function<void(size_t)>& produce,
                  const std::function<bool(size_t)>& consume);

  /// std::thread::hardware_concurrency, never 0.
  static size_t HardwareThreads();

 private:
  void WorkerLoop();

  std::vector<std::thread> threads_;
  Mutex mu_{"thread_pool", lock_rank::kThreadPool};
  CondVar task_cv_;  // signals workers: task ready / stop
  CondVar done_cv_;  // signals waiters: a task finished
  std::queue<std::function<void()>> queue_ DBFA_GUARDED_BY(mu_);
  // Queued + currently running tasks.
  size_t in_flight_ DBFA_GUARDED_BY(mu_) = 0;
  bool stop_ DBFA_GUARDED_BY(mu_) = false;
};

}  // namespace dbfa

#endif  // DBFA_COMMON_THREAD_POOL_H_
