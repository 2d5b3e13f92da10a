#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/trace.hpp"

namespace aqua::util {
namespace {

TEST(ThreadPool, CompletesAllTasksUnderContention) {
  // Many more indices than workers, all hammering one atomic: every index
  // must run exactly once whichever worker claims it.
  ThreadPool pool{4};
  std::atomic<int> count{0};
  pool.parallel_for(1000, [&count](std::size_t) {
    count.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(count.load(), 1000);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool{4};
  std::vector<std::atomic<int>> hits(257);
  pool.parallel_for(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < hits.size(); ++i)
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, ParallelForRethrowsAfterFinishingOtherBlocks) {
  ThreadPool pool{3};
  std::vector<std::atomic<int>> hits(100);
  try {
    pool.parallel_for(hits.size(), [&](std::size_t i) {
      hits[i].fetch_add(1);
      if (i == 61) throw std::invalid_argument("index 61");
      if (i == 37) {
        // The lower index fails last, so "first to fail" would pick 61.
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        throw std::invalid_argument("index 37");
      }
    });
    FAIL() << "parallel_for returned normally";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string_view{e.what()}, "index 37");
  }
  // The rethrow comes only after every index ran, the failing ones included.
  for (std::size_t i = 0; i < hits.size(); ++i)
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, DefaultsToAtLeastOneThread) {
  ThreadPool pool;  // hardware concurrency, whatever the machine offers
  EXPECT_GE(pool.thread_count(), 1u);
  std::atomic<int> count{0};
  pool.parallel_for(3, [&count](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 3);
}

TEST(ThreadPool, SingleThreadPoolStillDrainsManyTasks) {
  ThreadPool pool{1};
  std::atomic<int> count{0};
  pool.parallel_for(300, [&count](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 300);
}

TEST(ThreadPool, NestedParallelForFromAWorkerIsRefused) {
  ThreadPool pool{2};
  EXPECT_THROW(pool.parallel_for(4,
                                 [&pool](std::size_t) {
                                   pool.parallel_for(1, [](std::size_t) {});
                                 }),
               std::logic_error);
  // The refusal leaves the pool usable.
  std::atomic<int> count{0};
  pool.parallel_for(8, [&count](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 8);
}

TEST(ThreadPool, TwoOutsideCallersRunOneAfterTheOther) {
  ThreadPool pool{4};
  std::atomic<int> running[2] = {0, 0};
  std::atomic<int> done[2] = {0, 0};
  std::atomic<int> overlaps{0};
  const auto call = [&](int c) {
    for (int rep = 0; rep < 20; ++rep)
      pool.parallel_for(16, [&, c](std::size_t) {
        running[c].fetch_add(1);
        if (running[1 - c].load() != 0) overlaps.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::microseconds(20));
        running[c].fetch_sub(1);
        done[c].fetch_add(1);
      });
  };
  std::thread a{call, 0};
  std::thread b{call, 1};
  a.join();
  b.join();
  EXPECT_EQ(done[0].load(), 20 * 16);
  EXPECT_EQ(done[1].load(), 20 * 16);
  EXPECT_EQ(overlaps.load(), 0);
}

TEST(ThreadPool, FewerIndicesThanWorkers) {
  // Most workers find the job finished, or every index claimed, when they
  // wake; none may run an index twice or hold the caller up.
  ThreadPool pool{8};
  for (int rep = 0; rep < 200; ++rep) {
    const std::size_t n = 1 + static_cast<std::size_t>(rep % 3);
    std::vector<std::atomic<int>> hits(n);
    pool.parallel_for(n, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_EQ(hits[i].load(), 1) << "rep " << rep << " index " << i;
  }
}

TEST(ThreadPool, ConstructThenDestroyWithNoJob) {
  for (int rep = 0; rep < 50; ++rep) {
    ThreadPool pool{4};
    EXPECT_EQ(pool.thread_count(), 4u);
  }
}

// Spans named `name` whose begin and end both sit on one track, or -1 if any
// track holds an end without its begin or a begin without its end.
long long closed_spans(const obs::TraceSnapshot& snap, std::string_view name) {
  long long count = 0;
  for (const obs::TraceTrack& track : snap.tracks) {
    std::vector<const char*> open;
    for (const obs::TraceEvent& ev : track.events) {
      if (ev.kind == obs::TraceEventKind::kSpanBegin) {
        open.push_back(ev.name);
      } else if (ev.kind == obs::TraceEventKind::kSpanEnd) {
        if (open.empty() || std::string_view{open.back()} != ev.name) return -1;
        if (name == ev.name) ++count;
        open.pop_back();
      }
    }
    if (!open.empty()) return -1;
  }
  return count;
}

// The quiescence contract: once parallel_for returns, the `team.epoch` span
// of every worker that entered the job is closed and no worker emits another
// event, so a snapshot taken there holds one closed span per entering worker
// (at least the one that ran the first index; a worker that wakes after the
// job has finished never enters) and nothing unmatched.
TEST(ThreadPool, ReturnedParallelForLeavesNoOpenSpan) {
  ThreadPool pool{4};
  obs::TraceRecorder& recorder = obs::TraceRecorder::instance();
  recorder.clear();
  obs::TraceRecorder::set_enabled(true);
  for (int rep = 0; rep < 20; ++rep) {
    for (const std::size_t n : {3u, 4u, 9u}) {
      pool.parallel_for(n, [](std::size_t) {});
      const obs::TraceSnapshot snap = recorder.snapshot();
      recorder.clear();
      EXPECT_EQ(snap.dropped_total, 0u) << "n " << n;
      const long long stays = closed_spans(snap, "team.epoch");
      EXPECT_GE(stays, 1) << "n " << n;  // -1 would mean an unmatched event
      EXPECT_LE(stays, static_cast<long long>(pool.thread_count()))
          << "n " << n;
    }
  }
  obs::TraceRecorder::set_enabled(false);
  recorder.clear();
}

// Each worker's slot holds its stay in the job: it covers every body the
// worker ran, and no stay outlasts the call. On a one-index job the worker
// that runs the index is busy for the body; the others at most find the
// cursor exhausted, or never enter.
TEST(ThreadPool, ReportsEachWorkersBusyTime) {
  using Clock = std::chrono::steady_clock;
  ThreadPool pool{4};
  std::atomic<long long> body_ns{0};
  const auto t0 = Clock::now();
  const std::vector<double> busy = pool.parallel_for(64, [&](std::size_t) {
    const auto b0 = Clock::now();
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    body_ns.fetch_add(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - b0)
            .count());
  });
  const double wall_s =
      std::chrono::duration<double>(Clock::now() - t0).count();
  ASSERT_EQ(busy.size(), pool.thread_count());
  double total_s = 0.0;
  for (const double s : busy) {
    EXPECT_GE(s, 0.0);
    total_s += s;
  }
  EXPECT_GE(total_s, static_cast<double>(body_ns.load()) * 1e-9);
  EXPECT_LE(total_s, static_cast<double>(pool.thread_count()) * wall_s);

  const std::vector<double> one = pool.parallel_for(1, [](std::size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  });
  ASSERT_EQ(one.size(), pool.thread_count());
  EXPECT_GE(*std::max_element(one.begin(), one.end()), 5e-3);
  EXPECT_EQ(std::count_if(one.begin(), one.end(),
                          [](double s) { return s < 1e-3; }),
            static_cast<std::ptrdiff_t>(pool.thread_count() - 1));
}

}  // namespace
}  // namespace aqua::util
