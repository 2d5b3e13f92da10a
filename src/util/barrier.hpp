// barrier.hpp — reusable epoch barrier for persistent-worker execution.
//
// The fleet engine's parallel epoch loop parks one long-lived task on every
// pool worker and releases them once per epoch (DESIGN.md §12). That pattern
// needs a rendezvous all participants cross together, generation after
// generation — this class. It is a classic sense-reversing barrier built on a
// mutex + condition variable: correct under TSan, immune to spurious wakeups,
// and cheap relative to an epoch (two lock/unlock pairs per participant per
// crossing, microseconds against the milliseconds an epoch of sensors costs).
//
// The mutex also carries the memory ordering the epoch protocol relies on:
// anything a thread wrote before arrive_and_wait() is visible to every other
// participant after their own arrive_and_wait() returns. The caller publishes
// the epoch's frozen network snapshot that way, and the workers publish their
// per-sensor results back the same way.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>

namespace aqua::util {

class EpochBarrier {
 public:
  /// A barrier for exactly `participants` threads (>= 1; throws
  /// std::invalid_argument on 0 — a 0-party barrier can never trip).
  explicit EpochBarrier(std::size_t participants);

  EpochBarrier(const EpochBarrier&) = delete;
  EpochBarrier& operator=(const EpochBarrier&) = delete;

  /// Blocks until all participants have arrived, then releases every one of
  /// them and resets for the next generation. Returns the index of the
  /// generation just completed (0 for the first crossing). All participants
  /// of one crossing return the same index.
  std::uint64_t arrive_and_wait();

  [[nodiscard]] std::size_t participants() const { return participants_; }

  /// Generations completed so far (for tests/telemetry; racy by nature while
  /// threads are mid-crossing).
  [[nodiscard]] std::uint64_t generation() const;

 private:
  const std::size_t participants_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::size_t arrived_ = 0;
  std::uint64_t generation_ = 0;
};

}  // namespace aqua::util
