#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

namespace aqua::util {
namespace {

TEST(ThreadPool, SubmitReturnsTaskResult) {
  ThreadPool pool{2};
  auto f = pool.submit([] { return 6 * 7; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, CompletesAllTasksUnderContention) {
  // Many more tasks than workers, all hammering one atomic: every task must
  // run exactly once regardless of which queue it lands in or who steals it.
  ThreadPool pool{4};
  std::atomic<int> count{0};
  std::vector<std::future<void>> futures;
  futures.reserve(1000);
  for (int i = 0; i < 1000; ++i)
    futures.push_back(pool.submit([&count] {
      count.fetch_add(1, std::memory_order_relaxed);
    }));
  for (auto& f : futures) f.get();
  // A worker readies a task's future before it retires the task, so a ready
  // future does not yet mean in_flight() has dropped: wait for idle first.
  pool.wait_idle();
  EXPECT_EQ(count.load(), 1000);
  EXPECT_EQ(pool.in_flight(), 0u);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool{4};
  std::vector<std::atomic<int>> hits(257);
  pool.parallel_for(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < hits.size(); ++i)
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, ExceptionPropagatesToCallerThroughFuture) {
  ThreadPool pool{2};
  auto f = pool.submit(
      []() -> int { throw std::runtime_error("task failed"); });
  EXPECT_THROW(f.get(), std::runtime_error);
  // The pool survives a throwing task.
  EXPECT_EQ(pool.submit([] { return 1; }).get(), 1);
}

TEST(ThreadPool, ParallelForRethrowsAfterFinishingOtherBlocks) {
  ThreadPool pool{3};
  std::atomic<int> completed{0};
  EXPECT_THROW(
      pool.parallel_for(100,
                        [&](std::size_t i) {
                          if (i == 37) throw std::invalid_argument("bad index");
                          completed.fetch_add(1);
                        }),
      std::invalid_argument);
  // The rethrow happens only after every block finished: at most the tail of
  // the one chunk that threw (≤ ⌈100/12⌉ indices) may be missing.
  EXPECT_GE(completed.load(), 90);
  EXPECT_LE(completed.load(), 99);
}

TEST(ThreadPool, GracefulShutdownDrainsQueuedWork) {
  std::atomic<int> count{0};
  {
    ThreadPool pool{2};
    for (int i = 0; i < 200; ++i)
      (void)pool.submit([&count] {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        count.fetch_add(1);
      });
    // Destructor runs with most of the queue still pending.
  }
  EXPECT_EQ(count.load(), 200);
}

TEST(ThreadPool, WaitIdleBlocksUntilQueueEmpty) {
  ThreadPool pool{2};
  std::atomic<int> count{0};
  for (int i = 0; i < 50; ++i)
    (void)pool.submit([&count] {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      count.fetch_add(1);
    });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 50);
  EXPECT_EQ(pool.in_flight(), 0u);
}

TEST(ThreadPool, NestedSubmitFromWorkerCompletes) {
  // A task spawning a subtask exercises the worker-local LIFO path.
  ThreadPool pool{2};
  auto outer = pool.submit([&pool] {
    auto inner = pool.submit([] { return 7; });
    return inner.get() + 1;
  });
  EXPECT_EQ(outer.get(), 8);
}

TEST(ThreadPool, DefaultsToAtLeastOneThread) {
  ThreadPool pool;  // hardware concurrency, whatever the machine offers
  EXPECT_GE(pool.thread_count(), 1u);
  EXPECT_EQ(pool.submit([] { return 3; }).get(), 3);
}

TEST(ThreadPool, SingleThreadPoolStillDrainsManyTasks) {
  ThreadPool pool{1};
  std::atomic<int> count{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 300; ++i)
    futures.push_back(pool.submit([&count] { count.fetch_add(1); }));
  for (auto& f : futures) f.get();
  EXPECT_EQ(count.load(), 300);
}

}  // namespace
}  // namespace aqua::util
