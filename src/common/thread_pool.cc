#include "common/thread_pool.h"

#include <algorithm>

namespace dbfa {

size_t ThreadPool::HardwareThreads() {
  unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<size_t>(n);
}

ThreadPool::ThreadPool(size_t num_threads) {
  size_t n = num_threads == 0 ? HardwareThreads() : num_threads;
  threads_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    threads_.emplace_back(&ThreadPool::WorkerLoop, this);
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(&mu_);
    stop_ = true;
  }
  task_cv_.SignalAll();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    MutexLock lock(&mu_);
    queue_.push(std::move(task));
    ++in_flight_;
  }
  task_cv_.Signal();
}

void ThreadPool::Wait() {
  MutexLock lock(&mu_);
  while (in_flight_ != 0) done_cv_.Wait(&mu_);
}

void ThreadPool::ParallelFor(size_t n,
                             const std::function<void(size_t)>& body) {
  OrderedFor(n, n, body, [](size_t) { return true; });
}

void ThreadPool::OrderedFor(size_t n, size_t window,
                            const std::function<void(size_t)>& produce,
                            const std::function<bool(size_t)>& consume) {
  // Per-call completion flags, guarded by mu_. Only this call's tasks set
  // them, so the waits below never depend on anyone else's work.
  std::vector<char> done(n, 0);
  size_t submitted = 0;
  auto submit_until = [&](size_t end) {
    for (; submitted < std::min(n, end); ++submitted) {
      Submit([this, &produce, &done, i = submitted] {
        produce(i);
        MutexLock lock(&mu_);
        done[i] = 1;
        done_cv_.SignalAll();
      });
    }
  };
  auto await = [&](size_t i) {
    MutexLock lock(&mu_);
    while (!done[i]) done_cv_.Wait(&mu_);
  };
  submit_until(std::max<size_t>(window, 1));
  size_t next = 0;
  for (; next < n; ++next) {
    await(next);
    if (!consume(next)) break;
    submit_until(next + 1 + std::max<size_t>(window, 1));
  }
  for (size_t i = next; i < submitted; ++i) await(i);
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(&mu_);
      while (!stop_ && queue_.empty()) task_cv_.Wait(&mu_);
      if (queue_.empty()) return;  // stop_ set and nothing left to drain
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
    {
      MutexLock lock(&mu_);
      --in_flight_;
      if (in_flight_ == 0) done_cv_.SignalAll();
    }
  }
}

}  // namespace dbfa
