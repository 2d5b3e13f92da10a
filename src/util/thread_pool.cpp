#include "util/thread_pool.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace aqua::util {

namespace {
// Identifies the pool (and worker slot) the current thread belongs to, so
// nested submissions go to the submitter's own queue front.
thread_local ThreadPool* tl_pool = nullptr;
thread_local std::size_t tl_worker_index = 0;

// Pool telemetry: tasks executed, successful steals, and the queue depth seen
// by each enqueue (a linear histogram — depth is small and bounded by tasks
// in flight). Scheduling is timing-dependent, so steal counts vary run to
// run; only the simulation output is covered by the determinism contract.
const obs::Counter kTasks{"util.thread_pool.tasks"};
const obs::Counter kSteals{"util.thread_pool.steals"};
const obs::Histogram kQueueDepth{"util.thread_pool.enqueue_queue_depth",
                                 obs::HistogramSpec{0.0, 64.0, 64, false}};
}  // namespace

ThreadPool::TaskScope::~TaskScope() { kTasks.add(1); }

ThreadPool::ThreadPool(unsigned thread_count) {
  unsigned n = thread_count != 0 ? thread_count
                                 : std::max(1u, std::thread::hardware_concurrency());
  workers_.reserve(n);
  for (unsigned i = 0; i < n; ++i)
    workers_.push_back(std::make_unique<Worker>());
  threads_.reserve(n);
  for (unsigned i = 0; i < n; ++i)
    threads_.emplace_back([this, i] { worker_loop(i); });
}

ThreadPool::~ThreadPool() {
  accepting_.store(false);
  wait_idle();  // drain queued work before stopping
  stop_.store(true);
  {
    std::lock_guard lock{wake_mutex_};
    wake_cv_.notify_all();
  }
  for (auto& t : threads_) t.join();
}

void ThreadPool::enqueue(Task task) {
  if (!accepting_.load())
    throw std::runtime_error("ThreadPool: submit after shutdown began");
  in_flight_.fetch_add(1);
  kQueueDepth.observe(static_cast<double>(queued_.fetch_add(1)));
  if (tl_pool == this) {
    // A worker submitting to its own pool: LIFO front for locality.
    Worker& own = *workers_[tl_worker_index];
    std::lock_guard lock{own.mutex};
    own.queue.push_front(std::move(task));
  } else {
    Worker& target =
        *workers_[next_queue_.fetch_add(1) % workers_.size()];
    std::lock_guard lock{target.mutex};
    target.queue.push_back(std::move(task));
  }
  {
    std::lock_guard lock{wake_mutex_};
    wake_cv_.notify_one();
  }
}

bool ThreadPool::try_pop_local(std::size_t index, Task& out) {
  Worker& own = *workers_[index];
  std::lock_guard lock{own.mutex};
  if (own.queue.empty()) return false;
  out = std::move(own.queue.front());
  own.queue.pop_front();
  queued_.fetch_sub(1);
  return true;
}

bool ThreadPool::try_steal(std::size_t thief, Task& out) {
  const std::size_t n = workers_.size();
  for (std::size_t hop = 1; hop < n; ++hop) {
    Worker& victim = *workers_[(thief + hop) % n];
    std::lock_guard lock{victim.mutex};
    if (victim.queue.empty()) continue;
    out = std::move(victim.queue.back());
    victim.queue.pop_back();
    queued_.fetch_sub(1);
    kSteals.add(1);
    AQUA_TRACE_INSTANT("pool.steal");
    return true;
  }
  return false;
}

void ThreadPool::worker_loop(std::size_t index) {
  tl_pool = this;
  tl_worker_index = index;
  obs::TraceRecorder::set_thread_name("pool-" + std::to_string(index));
  for (;;) {
    Task task;
    if (try_pop_local(index, task) || try_steal(index, task)) {
      task();  // packaged_task captures any exception into its future
      if (in_flight_.fetch_sub(1) == 1) {
        std::lock_guard lock{wake_mutex_};
        idle_cv_.notify_all();
      }
      continue;
    }
    std::unique_lock lock{wake_mutex_};
    if (stop_.load()) return;
    // Race-free: an enqueue between the failed scans and this wait holds
    // wake_mutex_ to notify, so queued_ > 0 cannot be missed.
    wake_cv_.wait(lock, [this] { return stop_.load() || queued_.load() > 0; });
    if (stop_.load()) return;
  }
}

void ThreadPool::wait_idle() {
  std::unique_lock lock{wake_mutex_};
  idle_cv_.wait(lock, [this] { return in_flight_.load() == 0; });
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  // One task per contiguous block; a few blocks per worker so faster workers
  // can steal the tail.
  const std::size_t blocks = std::min(n, thread_count() * 4);
  const std::size_t chunk = (n + blocks - 1) / blocks;
  std::vector<std::future<void>> futures;
  futures.reserve(blocks);
  for (std::size_t begin = 0; begin < n; begin += chunk) {
    const std::size_t end = std::min(n, begin + chunk);
    futures.push_back(submit([begin, end, &body] {
      for (std::size_t i = begin; i < end; ++i) body(i);
    }));
  }
  std::exception_ptr first;
  for (auto& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (!first) first = std::current_exception();
    }
  }
  if (first) std::rethrow_exception(first);
}

}  // namespace aqua::util
