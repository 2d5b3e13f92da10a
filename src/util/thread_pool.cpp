#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <stdexcept>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace aqua::util {

namespace {
// The pool the current thread works for, so a nested call can be refused.
thread_local const ThreadPool* tl_pool = nullptr;

// One count per index run. Which worker runs an index is timing-dependent;
// the count is not.
const obs::Counter kTasks{"util.thread_pool.tasks"};

using Clock = std::chrono::steady_clock;
}  // namespace

struct ThreadPool::Job {
  Job(std::size_t count, const std::function<void(std::size_t)>& fn,
      std::size_t workers)
      : n(count), body(fn), failed(count), busy_s(workers, 0.0) {}

  const std::size_t n;
  const std::function<void(std::size_t)>& body;
  std::atomic<std::size_t> next{0};  // the claim cursor
  std::size_t failed;                // lowest failing index (under mutex_)
  std::exception_ptr error;          // its exception (under mutex_)
  // Each worker's stay, written by that worker alone before it leaves the
  // job under mutex_, so the caller reads every slot after the join.
  std::vector<double> busy_s;
};

ThreadPool::ThreadPool(unsigned thread_count) {
  const unsigned n = thread_count != 0
                         ? thread_count
                         : std::max(1u, std::thread::hardware_concurrency());
  threads_.reserve(n);
  for (unsigned i = 0; i < n; ++i)
    threads_.emplace_back([this, i] { worker_loop(i); });
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard lock{mutex_};
    stop_ = true;
  }
  wake_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::worker_loop(std::size_t index) {
  tl_pool = this;
  obs::TraceRecorder::set_thread_name("pool-" + std::to_string(index));
  std::uint64_t seen = 0;
  std::unique_lock lock{mutex_};
  for (;;) {
    wake_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
    if (stop_) return;
    seen = generation_;
    if (job_ == nullptr) continue;  // finished before this worker woke
    Job& job = *job_;
    ++active_;
    lock.unlock();
    run(job, index);
    lock.lock();
    if (--active_ == 0) done_cv_.notify_one();
  }
}

void ThreadPool::run(Job& job, std::size_t index) {
  // The span name is the one the benchmark's layer split reads as worker
  // busy time (benchmark/README.md).
  const obs::ScopedSpan span{"team.epoch"};
  const auto t0 = Clock::now();
  // Relaxed is enough: the cursor only has to hand each index out once. The
  // job itself is published, and its effects returned, through mutex_.
  for (;;) {
    const std::size_t i = job.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= job.n) break;
    try {
      job.body(i);
    } catch (...) {
      const std::lock_guard lock{mutex_};
      if (i < job.failed) {
        job.failed = i;
        job.error = std::current_exception();
      }
    }
    kTasks.add(1);
  }
  job.busy_s[index] = std::chrono::duration<double>(Clock::now() - t0).count();
}

std::vector<double> ThreadPool::parallel_for(
    std::size_t n, const std::function<void(std::size_t)>& body) {
  if (tl_pool == this)
    throw std::logic_error(
        "ThreadPool::parallel_for: called from one of the pool's own "
        "workers, it would wait on itself");
  if (n == 0) return std::vector<double>(threads_.size(), 0.0);
  const std::lock_guard call{call_mutex_};
  Job job{n, body, threads_.size()};
  {
    std::unique_lock lock{mutex_};
    job_ = &job;
    ++generation_;
    wake_cv_.notify_all();
    // A worker leaves only once every index is claimed, and an index is
    // finished before its worker claims again: with every index claimed and
    // no worker inside, every body has run.
    done_cv_.wait(lock, [&] {
      return active_ == 0 && job.next.load(std::memory_order_relaxed) >= n;
    });
    job_ = nullptr;
  }
  if (job.error) std::rethrow_exception(job.error);
  return std::move(job.busy_s);
}

}  // namespace aqua::util
