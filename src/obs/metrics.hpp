// metrics.hpp — deterministic, near-zero-overhead telemetry for the datapath
// and the fleet engine: a process-wide registry of named counters and
// fixed-bin streaming histograms.
//
// Design constraints (DESIGN.md §8):
//
//  * The instrumented code is the bit-reproducible simulation datapath, so a
//    metric update may NEVER perturb it: no RNG draws, no writes to model
//    state, no FP arithmetic feeding back into the simulation. Metrics only
//    *observe* values; disabling collection (set_enabled(false)) changes
//    nothing but the recorded numbers. The fleet determinism suite runs with
//    metrics enabled and still demands bit-identical traces.
//
//  * Sensor tasks run on arbitrary pool threads, so the hot path must be
//    uncontended: every thread writes to its own shard (plain relaxed
//    atomics, no locks, no false sharing across metric kinds) and shards are
//    merged when snapshot() is scraped. A thread that exits donates its shard
//    back to a free list — totals are never lost and shard count is bounded
//    by the peak number of live threads.
//
//  * Registration is by name and idempotent; capacity is fixed at compile
//    time (kMaxCounters/kMaxHistograms) so shard storage never
//    reallocates under a concurrent writer.
//
// Typical instrumentation site (function-local static: registers once,
// thread-safe, ~1 branch + 1 relaxed add per event afterwards):
//
//   static const obs::Counter kOverload{"isif.channel.overload_blocks"};
//   if (sample.overload) kOverload.add();
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace aqua::obs {

/// Fixed binning of a streaming histogram. Bins span [lo, hi); samples below
/// lo land in the underflow bucket, samples at or above hi in the overflow
/// bucket. Log-scale bins (decades subdivided evenly in log10) suit latency
/// distributions; linear bins suit bounded physical quantities.
struct HistogramSpec {
  double lo = 1e-6;
  double hi = 1.0;
  int bins = 36;
  bool log_scale = true;
};

struct CounterSnapshot {
  std::string name;
  std::uint64_t value = 0;
};

struct HistogramSnapshot {
  std::string name;
  HistogramSpec spec{};
  /// Upper edge of each regular bin (size == spec.bins).
  std::vector<double> upper_edges;
  /// Per-bin counts: [0] underflow, [1..bins] regular, [bins+1] overflow.
  std::vector<std::uint64_t> counts;
  std::uint64_t count = 0;  ///< total observations
  double sum = 0.0;         ///< merge-order dependent; not part of the
                            ///< determinism contract (wall-clock metrics)
  double min = 0.0;         ///< defined only when count > 0
  double max = 0.0;
};

/// One merged scrape of every registered metric, sorted by name.
struct Snapshot {
  std::vector<CounterSnapshot> counters;
  std::vector<HistogramSnapshot> histograms;
};

class Registry {
 public:
  static constexpr std::uint32_t kMaxCounters = 192;
  static constexpr std::uint32_t kMaxHistograms = 32;
  static constexpr int kMaxBins = 96;

  /// The process-wide registry (intentionally leaked so thread-local shard
  /// release at late thread exit never races static destruction).
  static Registry& instance();

  /// Registers (or looks up) a metric by name; throws std::length_error past
  /// the fixed capacity. Histogram specs are fixed by the first registration.
  std::uint32_t register_counter(std::string_view name);
  std::uint32_t register_histogram(std::string_view name,
                                   const HistogramSpec& spec);

  // Hot paths: no-ops while collection is disabled.
  void counter_add(std::uint32_t slot, std::uint64_t delta);
  void histogram_observe(std::uint32_t slot, double value);

  /// Merges every shard (live and donated) into one snapshot, sorted by name.
  [[nodiscard]] Snapshot snapshot();

  /// Zeroes every metric in every shard. Callers must quiesce instrumented
  /// threads first (e.g. between benchmark modes); concurrent writers would
  /// be partially lost, never corrupted.
  void zero();

  /// Checkpoint support: forces the *merged* value of a named counter to
  /// `value` by writing the compensating (wrapping) delta into the calling
  /// thread's shard — existing shards are never touched, so this is safe
  /// against the free-list. Registers the name if unseen. Callers must
  /// quiesce instrumented threads first, as with zero().
  void restore_counter(std::string_view name, std::uint64_t value);

  /// Collection switch (default on). Purely additive: the simulation datapath
  /// is identical either way — that is the determinism guarantee, not a
  /// consequence of this flag.
  static void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }
  [[nodiscard]] static bool enabled() {
    return enabled_.load(std::memory_order_relaxed);
  }

 private:
  struct HistogramCell {
    std::array<std::atomic<std::uint64_t>, kMaxBins + 2> buckets{};
    std::atomic<std::uint64_t> count{0};
    std::atomic<double> sum{0.0};
    std::atomic<double> min{0.0};
    std::atomic<double> max{0.0};
  };
  struct Shard {
    std::array<std::atomic<std::uint64_t>, kMaxCounters> counters{};
    std::array<HistogramCell, kMaxHistograms> histograms{};
  };
  /// Pre-resolved binning of one histogram (immutable after registration).
  struct HistogramMeta {
    HistogramSpec spec{};
    double origin = 0.0;     // lo, or log10(lo) for log bins
    double inv_width = 0.0;  // bins / (span in linear or log10 space)
    std::vector<double> upper_edges;
  };

  Registry();
  Shard& local_shard();
  void release_shard(Shard* shard);
  static void zero_shard(Shard& shard);

  friend struct ShardLease;

  static std::atomic<bool> enabled_;

  std::mutex mutex_;  // registration + shard list + scrape
  std::vector<std::string> counter_names_;
  std::vector<std::string> histogram_names_;
  std::vector<HistogramMeta> histogram_meta_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<Shard*> free_shards_;
};

/// Monotonic event counter. Copyable handle; registration happens once in the
/// constructor.
class Counter {
 public:
  explicit Counter(std::string_view name)
      : slot_(Registry::instance().register_counter(name)) {}
  void add(std::uint64_t delta = 1) const {
    if (Registry::enabled()) Registry::instance().counter_add(slot_, delta);
  }

 private:
  std::uint32_t slot_;
};

/// Fixed-bin streaming histogram.
class Histogram {
 public:
  Histogram(std::string_view name, const HistogramSpec& spec = {})
      : slot_(Registry::instance().register_histogram(name, spec)) {}
  void observe(double value) const {
    if (Registry::enabled()) Registry::instance().histogram_observe(slot_, value);
  }

 private:
  std::uint32_t slot_;
};

/// RAII wall-clock timer: observes the elapsed seconds into a histogram on
/// destruction. Wall time is inherently non-deterministic; it feeds metrics
/// only, never the simulation.
class ScopedTimer {
 public:
  explicit ScopedTimer(const Histogram& histogram);
  ~ScopedTimer();
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  const Histogram& histogram_;
  std::uint64_t start_ns_;
};

}  // namespace aqua::obs
