// trace.hpp — event tracing for the simulation stack: a process-wide recorder
// of time-stamped POD events (span begin/end, instants, counter samples) that
// turns "why did sensor 17 latch a fault at t=203 s?" from a printf hunt into
// a timeline you can open in Perfetto (see chrome_trace.hpp).
//
// The recorder lives under the same hard contract as the metrics registry
// (DESIGN.md §8/§10): instrumentation may NEVER perturb the bit-reproducible
// datapath. An event only *observes* values the simulation already computed —
// no RNG draws, no FP feedback, no writes to model state — so the fleet
// determinism suite passes bit-identically with tracing enabled, and the
// kill-switch (set_enabled(false)) changes nothing but the recorded events.
//
// Hot-path design:
//
//  * Every emitting thread owns a fixed-capacity ring of POD events; emit()
//    is a handful of plain stores plus one release store of the write index —
//    no locks, no allocation, no contention. Rings are registered once under
//    a mutex and kept for the recorder's lifetime, so a finished pool's task
//    spans still export.
//
//  * The ring drops oldest: the writer simply wraps, and snapshot() reports
//    how many events each track lost. Capacity is a compile-time constant
//    (kRingCapacity) so the ring never reallocates under its writer.
//
//  * Collection is OFF by default. Every AQUA_TRACE_* macro and the
//    ScopedSpan constructor check one relaxed atomic — the disabled cost is
//    ~1 branch per site, which ci/bench_compare.py gates (the channel block
//    throughput with tracing compiled in but disabled must stay within the
//    usual 20% envelope).
//
//  * Events are dual-stamped: a wall-clock nanosecond stamp (steady clock,
//    for the Perfetto timeline) and the simulation time where the site has
//    one in scope (kNoSimTime otherwise). Wall time is inherently
//    non-deterministic; it feeds telemetry only, never the simulation.
//
// snapshot() is wait-free for writers but best-effort for the scraper: take
// it at a quiescent point (end of a run, after a pool's parallel_for
// returns) like Registry::zero(); events overwritten mid-copy are detected
// and dropped, never corrupted.
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

enum class TraceEventKind : std::uint8_t {
  kSpanBegin = 0,  ///< opened by ScopedSpan / AQUA_TRACE_SPAN*
  kSpanEnd = 1,    ///< closed by the matching scope exit
  kInstant = 2,    ///< a point event on the emitting thread's track
  kCounter = 3,    ///< a sampled value (renders as a counter track)
};

/// Sim-time stamp for events emitted where no simulation clock is in scope
/// (thread-pool internals, log mirroring). Legitimate sim times are >= 0.
inline constexpr double kNoSimTime = -1.0;

/// One fixed-size POD trace event. `name` must point at storage that outlives
/// the recorder: a string literal, or a string interned via
/// TraceRecorder::intern().
struct TraceEvent {
  std::uint64_t wall_ns = 0;  ///< steady-clock stamp (epoch arbitrary)
  double sim_s = kNoSimTime;  ///< simulation time, or kNoSimTime
  double value = 0.0;         ///< counter value / span payload (sensor index…)
  const char* name = nullptr;
  TraceEventKind kind = TraceEventKind::kInstant;
};

/// One thread's slice of a snapshot, oldest event first.
struct TraceTrack {
  std::uint32_t tid = 0;
  std::string name;
  std::uint64_t dropped = 0;  ///< events lost to ring wrap on this track
  std::vector<TraceEvent> events;
};

struct TraceSnapshot {
  std::vector<TraceTrack> tracks;
  std::uint64_t dropped_total = 0;
};

class TraceRecorder {
 public:
  /// Events retained per thread (drop-oldest past this). 8192 × 40 B = 320 KiB
  /// per emitting thread — enough for minutes of coarse-grained fleet events.
  static constexpr std::size_t kRingCapacity = 8192;
  /// Dynamic strings interned at most (log mirroring); beyond this, events
  /// reuse a generic overflow name instead of growing without bound.
  static constexpr std::size_t kMaxInterned = 4096;

  /// The process-wide recorder (intentionally leaked, like obs::Registry, so
  /// emits from late thread exit never race static destruction).
  static TraceRecorder& instance();

  /// Collection switch (default OFF). Purely additive: the simulation
  /// datapath is identical either way — that is the determinism guarantee,
  /// not a consequence of this flag.
  static void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }
  [[nodiscard]] static bool enabled() {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Appends one event to the calling thread's ring (lock-free; allocates the
  /// ring on this thread's first emit). Callers normally go through the
  /// AQUA_TRACE_* macros, which skip the call entirely while disabled.
  void emit(TraceEventKind kind, const char* name, double sim_s = kNoSimTime,
            double value = 0.0);

  /// Names the calling thread's track in exports ("pool-3", "main"). No-op
  /// while collection is disabled (avoids allocating rings that never emit).
  static void set_thread_name(std::string_view name);

  /// Copies `text` into recorder-lifetime storage and returns a pointer
  /// usable as an event name. Takes a mutex — for rare events (warn/error log
  /// mirroring), not hot paths. Past kMaxInterned entries a shared overflow
  /// name is returned instead.
  const char* intern(std::string_view text);

  /// Merges every track into one snapshot. Writers are never blocked; events
  /// a writer overtakes during the copy are dropped (counted), not torn.
  /// Scrape at quiescent points for complete results.
  [[nodiscard]] TraceSnapshot snapshot();

  /// Rewinds every ring. Callers must quiesce emitting threads first (same
  /// contract as Registry::zero()).
  void clear();

 private:
  struct Ring {
    std::array<TraceEvent, kRingCapacity> events{};
    std::atomic<std::uint64_t> write{0};
    std::uint32_t tid = 0;
    std::string name;  // guarded by the recorder mutex
  };

  TraceRecorder() = default;
  Ring& local_ring();

  static std::atomic<bool> enabled_;

  std::mutex mutex_;  // ring list + names + interning + snapshot
  std::vector<std::unique_ptr<Ring>> rings_;
  std::vector<std::unique_ptr<std::string>> interned_;
  std::uint32_t next_tid_ = 1;
};

/// RAII span on the calling thread's track. If collection is enabled at
/// construction, the end event is emitted at scope exit even if collection
/// was disabled in between — exports never see orphaned begins from the
/// kill-switch.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, double sim_s = kNoSimTime,
                      double value = 0.0) {
    if (TraceRecorder::enabled()) {
      name_ = name;
      sim_s_ = sim_s;
      TraceRecorder::instance().emit(TraceEventKind::kSpanBegin, name, sim_s,
                                     value);
    }
  }
  ~ScopedSpan() {
    if (name_ != nullptr)
      TraceRecorder::instance().emit(TraceEventKind::kSpanEnd, name_, sim_s_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_ = nullptr;
  double sim_s_ = kNoSimTime;
};

// Instrumentation macros: ~1 branch per site while collection is disabled.
// `name` must be a string literal (or interned pointer).
#define AQUA_TRACE_CONCAT_INNER(a, b) a##b
#define AQUA_TRACE_CONCAT(a, b) AQUA_TRACE_CONCAT_INNER(a, b)

/// Span over the enclosing scope on the calling thread's track.
#define AQUA_TRACE_SPAN(name)                                       \
  const ::aqua::obs::ScopedSpan AQUA_TRACE_CONCAT(aqua_trace_span_, \
                                                  __LINE__) {       \
    name                                                            \
  }
/// Span dual-stamped with the simulation time at entry.
#define AQUA_TRACE_SPAN_SIM(name, sim_s)                            \
  const ::aqua::obs::ScopedSpan AQUA_TRACE_CONCAT(aqua_trace_span_, \
                                                  __LINE__) {       \
    name, sim_s                                                     \
  }

#define AQUA_TRACE_INSTANT(name)                                     \
  do {                                                               \
    if (::aqua::obs::TraceRecorder::enabled())                       \
      ::aqua::obs::TraceRecorder::instance().emit(                   \
          ::aqua::obs::TraceEventKind::kInstant, name);              \
  } while (0)
#define AQUA_TRACE_INSTANT_SIM(name, sim_s)                          \
  do {                                                               \
    if (::aqua::obs::TraceRecorder::enabled())                       \
      ::aqua::obs::TraceRecorder::instance().emit(                   \
          ::aqua::obs::TraceEventKind::kInstant, name, sim_s);       \
  } while (0)

/// Samples `value` onto a counter track (Perfetto renders it as a graph).
#define AQUA_TRACE_COUNTER(name, value)                              \
  do {                                                               \
    if (::aqua::obs::TraceRecorder::enabled())                       \
      ::aqua::obs::TraceRecorder::instance().emit(                   \
          ::aqua::obs::TraceEventKind::kCounter, name,               \
          ::aqua::obs::kNoSimTime, value);                           \
  } while (0)

}  // namespace aqua::obs
