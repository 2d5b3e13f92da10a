// thread_pool.hpp — a fixed set of parked workers for fleet-scale
// co-simulation, with one entry point: parallel_for(n, body).
//
// Each call publishes one job. Every worker claims the next index from the
// job's atomic cursor, runs it, and claims again until none is left; the
// caller waits for the workers to leave the job. Claiming one index at a
// time balances uneven iterations without queues or steals. It is the only
// claim loop under the fleet engine: its commission, calibration and every
// epoch hand the pool one sensor per index (FleetEngine::dispatch).
// The pool is a scheduling substrate only: determinism is the *caller's*
// contract (iterations must write disjoint state and own their RNG streams —
// see fleet::FleetEngine), so the pool promises nothing about which worker
// runs which index, or when.
//
// Calls are serialised: parallel_for calls from two outside threads run one
// after the other. The caller claims no indices itself, so a pool of k keeps
// exactly k threads busy. A call from one of the pool's own workers would
// wait on itself, so it throws std::logic_error instead.
//
// Each worker's stay in a job — from entering it to finding the cursor
// exhausted — is one `team.epoch` trace span and one steady-clock interval,
// which parallel_for returns as that worker's busy seconds: the measurement
// costs two clock reads per worker per job, not per index.
//
// Quiescence: every stay span and every index's `util.thread_pool.tasks`
// count are recorded before parallel_for returns. No worker is still
// emitting on the caller's behalf after it returns, so the caller may
// snapshot or clear obs::TraceRecorder there — the fleet engine's epoch
// boundary is such a point.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace aqua::util {

class ThreadPool {
 public:
  /// Spawns `thread_count` workers (0 = hardware concurrency, at least 1).
  explicit ThreadPool(unsigned thread_count = 0);

  /// Joins the workers. No job is ever open here: parallel_for returns only
  /// once its job is finished.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Runs body(i) for every i in [0, n) on the workers and returns once all
  /// have run, with one slot per worker: the wall seconds that worker spent
  /// in the job (0 for a worker that never entered it). If bodies throw,
  /// every other index still runs, then the exception of the lowest failing
  /// index is rethrown. Throws std::logic_error when called from one of this
  /// pool's workers.
  std::vector<double> parallel_for(
      std::size_t n, const std::function<void(std::size_t)>& body);

  [[nodiscard]] std::size_t thread_count() const { return threads_.size(); }

 private:
  struct Job;

  void worker_loop(std::size_t index);
  /// Worker `index`'s stay in `job`: the claim loop, inside its span and
  /// timing.
  void run(Job& job, std::size_t index);

  std::mutex call_mutex_;            // one parallel_for at a time
  std::mutex mutex_;                 // guards the job state below and a
                                     // job's failure record
  std::condition_variable wake_cv_;  // parked workers wait here
  std::condition_variable done_cv_;  // the caller waits here
  Job* job_ = nullptr;               // the open job, if any
  std::uint64_t generation_ = 0;     // bumped when a job is published
  std::size_t active_ = 0;           // workers inside the open job
  bool stop_ = false;
  std::vector<std::thread> threads_;  // last: the workers use all of the above
};

}  // namespace aqua::util
