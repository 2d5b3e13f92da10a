// thread_pool.hpp — work-stealing thread pool for fleet-scale co-simulation.
//
// Each worker owns a deque: the owner pushes and pops at the front (LIFO, for
// cache locality on nested submissions) while idle workers steal from the back
// of a victim's deque (FIFO, so the oldest — usually largest — task migrates).
// External submissions are distributed round-robin. The pool is a scheduling
// substrate only: determinism is the *caller's* contract (tasks must write to
// disjoint state and own their RNG streams — see fleet::FleetEngine), which is
// why the pool makes no ordering promises beyond "every submitted task runs".
//
// Shutdown is graceful: the destructor stops accepting work, drains every
// queued task, then joins. Exceptions thrown by a task are captured in the
// std::future returned by submit() (or rethrown by parallel_for).
//
// Quiescence: a task's `pool.task` trace span and its `util.thread_pool.tasks`
// count are both recorded before its future becomes ready. Once a caller's
// futures (or parallel_for) have returned, no worker is still emitting on the
// caller's behalf, so the caller may snapshot or clear obs::TraceRecorder
// there — the fleet engine's epoch boundary is such a point.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "obs/trace.hpp"

namespace aqua::util {

class ThreadPool {
 public:
  /// Spawns `thread_count` workers (0 = hardware concurrency, at least 1).
  explicit ThreadPool(unsigned thread_count = 0);

  /// Drains all queued work, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Schedules `fn` and returns the future of its result. A task that throws
  /// stores the exception in the future. Throws std::runtime_error if the
  /// pool is shutting down.
  template <class F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    std::packaged_task<R()> task{[fn = std::forward<F>(fn)]() mutable -> R {
      const TaskScope scope;
      return fn();
    }};
    std::future<R> result = task.get_future();
    enqueue(Task{std::move(task)});
    return result;
  }

  /// Runs body(i) for i in [0, n), blocking until all iterations finish.
  /// Iterations are grouped into contiguous blocks (one task per block). The
  /// first exception (in iteration order of the blocks) is rethrown after
  /// every block has completed.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body);

  /// Blocks until no task is queued or running.
  void wait_idle();

  [[nodiscard]] std::size_t thread_count() const { return workers_.size(); }

  /// Tasks queued or running right now (approximate, for tests/telemetry).
  [[nodiscard]] std::size_t in_flight() const { return in_flight_.load(); }

 private:
  /// Move-only type-erased task (std::function requires copyability, which
  /// std::packaged_task does not offer).
  class Task {
   public:
    Task() = default;
    template <class F>
    explicit Task(F&& f)
        : impl_(std::make_unique<Model<std::decay_t<F>>>(std::forward<F>(f))) {}
    void operator()() { impl_->call(); }
    [[nodiscard]] explicit operator bool() const { return impl_ != nullptr; }

   private:
    struct Concept {
      virtual ~Concept() = default;
      virtual void call() = 0;
    };
    template <class F>
    struct Model final : Concept {
      explicit Model(F f) : fn(std::move(f)) {}
      void call() override { fn(); }
      F fn;
    };
    std::unique_ptr<Concept> impl_;
  };

  /// Brackets one task's body inside its packaged task (see Quiescence
  /// above): the `pool.task` span, and the task count on exit, even when
  /// the body throws.
  class TaskScope {
   public:
    TaskScope() = default;
    ~TaskScope();
    TaskScope(const TaskScope&) = delete;
    TaskScope& operator=(const TaskScope&) = delete;

   private:
    obs::ScopedSpan span_{"pool.task"};
  };

  struct Worker {
    std::mutex mutex;
    std::deque<Task> queue;
  };

  void enqueue(Task task);
  void worker_loop(std::size_t index);
  bool try_pop_local(std::size_t index, Task& out);
  bool try_steal(std::size_t thief, Task& out);

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;
  std::atomic<std::size_t> next_queue_{0};
  std::atomic<std::size_t> in_flight_{0};  // queued + running
  std::atomic<std::size_t> queued_{0};     // sitting in a deque
  std::atomic<bool> accepting_{true};
  std::atomic<bool> stop_{false};
  std::mutex wake_mutex_;
  std::condition_variable wake_cv_;   // workers sleep here
  std::condition_variable idle_cv_;   // wait_idle/destructor sleep here
};

}  // namespace aqua::util
