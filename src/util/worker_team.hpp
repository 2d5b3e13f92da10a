// worker_team.hpp — persistent per-worker epoch loops on a ThreadPool.
//
// The fork/join pattern (enqueue a batch of tasks, join their futures, repeat
// every epoch) pays queue, wake-up and future overhead per task per epoch —
// the `enqueue_queue_depth` histogram showed the old fleet loop feeding the
// pool ~13 micro-tasks per epoch even for tiny fleets. A WorkerTeam submits
// ONE task per worker for its whole lifetime; each task parks on a barrier
// and is released once per run_epoch() call, so the steady-state cost of an
// epoch is two barrier crossings and zero enqueues.
//
//   util::ThreadPool pool{8};
//   util::WorkerTeam team{pool, pool.thread_count(), [&](std::size_t w) {
//     claim_chunks(w);             // runs on worker w, once per epoch
//   }};
//   for (int e = 0; e < epochs; ++e) {
//     prepare_epoch();             // serial, workers parked
//     team.run_epoch();            // release + wait: body(w) for every w
//   }                              // ~WorkerTeam releases the workers
//
// Contract (misuse deadlocks, so read this):
//  * The team occupies `workers` pool threads for its whole lifetime. Do not
//    run anything else on the pool while a team is alive (the parked tasks
//    block every worker they hold), and never create a team larger than the
//    pool — the constructor throws on that.
//  * Destroy the team before the pool. The pool's destructor waits for all
//    in-flight tasks; a still-parked team never finishes.
//  * One coordinating thread: run_epoch() and the destructor must be called
//    from a single thread that is not a team worker.
//
// A body that throws does not desynchronise the team: the exception is
// captured, the worker still reaches the epoch's end barrier, and run_epoch
// rethrows the first captured exception after the whole epoch completed. The
// team stays usable for further epochs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <future>
#include <vector>

#include "util/barrier.hpp"
#include "util/thread_pool.hpp"

namespace aqua::util {

class WorkerTeam {
 public:
  /// body(worker) runs on each of the `workers` dedicated workers once per
  /// run_epoch(). Throws std::invalid_argument when `workers` is 0 or exceeds
  /// pool.thread_count() (the excess tasks could never run — see above).
  WorkerTeam(ThreadPool& pool, std::size_t workers,
             std::function<void(std::size_t)> body);

  /// Releases the parked workers with the stop flag and joins their tasks.
  ~WorkerTeam();

  WorkerTeam(const WorkerTeam&) = delete;
  WorkerTeam& operator=(const WorkerTeam&) = delete;

  /// One synchronized pass: releases every worker, runs body(w) on each, and
  /// returns when all have finished. Rethrows the first (lowest worker index)
  /// exception a body threw this epoch; the team remains usable afterwards.
  void run_epoch();

  [[nodiscard]] std::size_t workers() const { return errors_.size(); }
  /// Completed run_epoch() calls.
  [[nodiscard]] std::uint64_t epochs() const { return epochs_; }

 private:
  void worker_loop(std::size_t worker);

  std::function<void(std::size_t)> body_;
  EpochBarrier start_;  // caller + workers: epoch may begin
  EpochBarrier done_;   // caller + workers: epoch finished
  // Written only while the workers are parked (before the start barrier the
  // destructor crosses); the barrier's mutex publishes it.
  bool stop_ = false;
  std::vector<std::exception_ptr> errors_;  // one slot per worker
  std::vector<std::future<void>> futures_;
  std::uint64_t epochs_ = 0;
};

}  // namespace aqua::util
