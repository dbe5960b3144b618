// ThreadPool unit tests. Run under TSan via `ctest -L sanitize` (see
// README.md "Sanitizers") to prove the submit/wait handshake publishes
// task results race-free.
#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <numeric>
#include <vector>

namespace dbfa {
namespace {

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4u);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitPublishesPlainWritesFromTasks) {
  // Each task writes a distinct slot without atomics; Wait() must make
  // those writes visible to the orchestrator (the pattern the parallel
  // carver's waves rely on).
  ThreadPool pool(4);
  std::vector<int> slots(256, 0);
  pool.ParallelFor(slots.size(), [&slots](size_t i) {
    slots[i] = static_cast<int>(i) + 1;
  });
  long long sum = std::accumulate(slots.begin(), slots.end(), 0LL);
  EXPECT_EQ(sum, 256LL * 257 / 2);
}

TEST(ThreadPoolTest, WaitIsReusableAcrossWaves) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int wave = 1; wave <= 3; ++wave) {
    for (int i = 0; i < 10 * wave; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
    pool.Wait();
    EXPECT_EQ(counter.load(), 10 * (wave * (wave + 1)) / 2);
  }
}

TEST(ThreadPoolTest, WaitOnIdlePoolReturnsImmediately) {
  ThreadPool pool(2);
  pool.Wait();
  pool.ParallelFor(0, [](size_t) { FAIL() << "no tasks expected"; });
}

TEST(ThreadPoolTest, SingleThreadPoolStillRunsConcurrentlySubmittedWork) {
  ThreadPool pool(1);
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    pool.Submit([&order, i] { order.push_back(i); });
  }
  pool.Wait();
  // One worker drains the FIFO queue in submission order.
  ASSERT_EQ(order.size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPoolTest, DestructorDrainsPendingTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
    // No Wait(): destruction must still run everything already queued.
  }
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPoolTest, ZeroThreadConstructionFallsBackToHardware) {
  // num_threads == 0 is the "size for this machine" request, never an
  // inert pool: work submitted to it must still run.
  ThreadPool pool(0);
  EXPECT_GE(pool.thread_count(), 1u);
  EXPECT_EQ(pool.thread_count(), ThreadPool::HardwareThreads());
  std::atomic<int> counter{0};
  for (int i = 0; i < 16; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 16);
}

TEST(ThreadPoolTest, TasksMaySubmitFollowUpTasks) {
  // Re-entrant Submit from inside a running task: the chained task bumps
  // in_flight_ before its parent finishes, so Wait() cannot wake early.
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  std::function<void(int)> chain = [&](int depth) {
    counter.fetch_add(1);
    if (depth > 0) pool.Submit([&chain, depth] { chain(depth - 1); });
  };
  pool.Submit([&chain] { chain(9); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 10);
}

TEST(ThreadPoolTest, SubmitDuringDestructorDrainStillRuns) {
  // Enqueue-after-shutdown contract: once the destructor has set stop_,
  // the only legal Submit caller is a task already running (the single
  // orchestrating thread is inside ~ThreadPool). Such tasks ARE executed:
  // the submitting worker re-checks the queue after finishing its task
  // and drains chained work before joining, even if every other worker
  // has already exited.
  std::atomic<int> counter{0};
  // Declared before the pool so it outlives the destructor's drain (the
  // chained tasks still call it while ~ThreadPool joins the workers).
  std::function<void(int)> chain;
  {
    ThreadPool pool(2);
    chain = [&counter, &pool, &chain](int depth) {
      counter.fetch_add(1);
      if (depth > 0) pool.Submit([&chain, depth] { chain(depth - 1); });
    };
    for (int i = 0; i < 4; ++i) {
      pool.Submit([&chain] { chain(24); });
    }
    // No Wait(): destruction races the chains and must drain them all.
  }
  EXPECT_EQ(counter.load(), 4 * 25);
}

TEST(ThreadPoolTest, ParallelForWaitsForItsOwnTasksOnly) {
  // Two callers share one pool. Call A's only task blocks until call B has
  // returned, so a ParallelFor that waited for every task in the pool
  // would make B wait for A's task, which waits for B. The wait is bounded
  // so that such a deadlock fails the test instead of hanging it.
  ThreadPool pool(4);
  std::promise<void> a_running;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  auto a = std::async(std::launch::async, [&] {
    pool.ParallelFor(1, [&](size_t) {
      a_running.set_value();
      released.wait();
    });
  });
  a_running.get_future().wait();
  std::atomic<int> b_tasks{0};
  auto b = std::async(std::launch::async, [&] {
    pool.ParallelFor(8, [&](size_t) { b_tasks.fetch_add(1); });
  });
  bool b_returned =
      b.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  release.set_value();  // unblocks A either way, so a failure cannot hang
  a.wait();
  b.wait();
  EXPECT_TRUE(b_returned) << "ParallelFor waited for another caller's task";
  EXPECT_EQ(b_tasks.load(), 8);
}

TEST(ThreadPoolTest, OrderedForConsumesInIndexOrder) {
  // Producers finish in any order; consume(i) still sees 0, 1, 2, ... and
  // each producer's plain write is visible to it.
  ThreadPool pool(4);
  std::vector<int> produced(200, 0);
  std::vector<size_t> consumed;
  pool.OrderedFor(
      produced.size(), 8,
      [&](size_t i) { produced[i] = static_cast<int>(i) * 3; },
      [&](size_t i) {
        EXPECT_EQ(produced[i], static_cast<int>(i) * 3);
        consumed.push_back(i);
        return true;
      });
  ASSERT_EQ(consumed.size(), produced.size());
  for (size_t i = 0; i < consumed.size(); ++i) EXPECT_EQ(consumed[i], i);
}

TEST(ThreadPoolTest, OrderedForStopsSubmittingWhenConsumerStops) {
  // A consumer that stops at index 5 leaves at most `window` further
  // producers submitted, and every submitted one has finished on return.
  ThreadPool pool(2);
  std::atomic<int> produced{0};
  size_t consumed = 0;
  pool.OrderedFor(
      1000, 4, [&](size_t) { produced.fetch_add(1); },
      [&](size_t i) {
        ++consumed;
        return i < 5;
      });
  EXPECT_EQ(consumed, 6u);
  EXPECT_GE(produced.load(), 6);
  EXPECT_LE(produced.load(), 6 + 4);
}

TEST(ThreadPoolTest, HardwareThreadsIsPositive) {
  EXPECT_GE(ThreadPool::HardwareThreads(), 1u);
  ThreadPool pool;  // default: hardware concurrency
  EXPECT_GE(pool.thread_count(), 1u);
}

}  // namespace
}  // namespace dbfa
