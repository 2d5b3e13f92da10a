#include "obs/metrics.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>

namespace aqua::obs {

std::atomic<bool> Registry::enabled_{true};

namespace {

/// Relaxed CAS min/max for the per-shard extrema. Only the owning thread
/// writes in practice, so the loop almost never retries.
void atomic_min(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (v < cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void atomic_max(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (v > cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void atomic_add(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}

/// Registers `name` in `names` (idempotent); returns its slot.
std::uint32_t intern(std::vector<std::string>& names, std::string_view name,
                     std::size_t capacity, const char* kind) {
  for (std::uint32_t i = 0; i < names.size(); ++i)
    if (names[i] == name) return i;
  if (names.size() >= capacity)
    throw std::length_error(std::string("obs::Registry: too many ") + kind +
                            " metrics");
  names.emplace_back(name);
  return static_cast<std::uint32_t>(names.size() - 1);
}

}  // namespace

/// Thread-local lease on a shard: acquired on first metric write from this
/// thread, donated back to the free list on thread exit (keeping its values,
/// so totals survive the thread).
struct ShardLease {
  Registry::Shard* shard = nullptr;
  ~ShardLease() {
    if (shard != nullptr) Registry::instance().release_shard(shard);
  }
};

namespace {
thread_local ShardLease tl_lease;
}  // namespace

Registry::Registry() {
  // histogram_observe reads histogram_meta_ without the lock; fixed capacity
  // guarantees registration never reallocates under a concurrent observer.
  histogram_meta_.reserve(kMaxHistograms);
}

Registry& Registry::instance() {
  static Registry* registry = new Registry();  // leaked by design, see header
  return *registry;
}

Registry::Shard& Registry::local_shard() {
  if (tl_lease.shard == nullptr) {
    std::lock_guard lock{mutex_};
    if (!free_shards_.empty()) {
      tl_lease.shard = free_shards_.back();
      free_shards_.pop_back();
    } else {
      shards_.push_back(std::make_unique<Shard>());
      tl_lease.shard = shards_.back().get();
    }
  }
  return *tl_lease.shard;
}

void Registry::release_shard(Shard* shard) {
  std::lock_guard lock{mutex_};
  free_shards_.push_back(shard);
}

std::uint32_t Registry::register_counter(std::string_view name) {
  std::lock_guard lock{mutex_};
  return intern(counter_names_, name, kMaxCounters, "counter");
}

std::uint32_t Registry::register_histogram(std::string_view name,
                                           const HistogramSpec& spec) {
  std::lock_guard lock{mutex_};
  const auto before = histogram_names_.size();
  const std::uint32_t slot =
      intern(histogram_names_, name, kMaxHistograms, "histogram");
  if (histogram_names_.size() == before) return slot;  // already registered

  if (!(spec.lo < spec.hi) || spec.bins < 1 || spec.bins > kMaxBins ||
      (spec.log_scale && spec.lo <= 0.0))
    throw std::invalid_argument("obs::Registry: bad histogram spec for " +
                                std::string(name));
  HistogramMeta meta;
  meta.spec = spec;
  if (spec.log_scale) {
    meta.origin = std::log10(spec.lo);
    meta.inv_width = spec.bins / (std::log10(spec.hi) - meta.origin);
  } else {
    meta.origin = spec.lo;
    meta.inv_width = spec.bins / (spec.hi - spec.lo);
  }
  meta.upper_edges.reserve(static_cast<std::size_t>(spec.bins));
  for (int b = 1; b <= spec.bins; ++b) {
    const double x = meta.origin + b / meta.inv_width;
    meta.upper_edges.push_back(spec.log_scale ? std::pow(10.0, x) : x);
  }
  meta.upper_edges.back() = spec.hi;  // exact upper bound despite rounding
  histogram_meta_.push_back(std::move(meta));
  return slot;
}

void Registry::counter_add(std::uint32_t slot, std::uint64_t delta) {
  local_shard().counters[slot].fetch_add(delta, std::memory_order_relaxed);
}

void Registry::histogram_observe(std::uint32_t slot, double value) {
  // Binning meta is immutable after registration; read it without the lock.
  const HistogramMeta& meta = histogram_meta_[slot];
  std::size_t bucket;
  if (!(value >= meta.spec.lo)) {  // also catches NaN
    bucket = 0;
  } else if (value >= meta.spec.hi) {
    bucket = static_cast<std::size_t>(meta.spec.bins) + 1;
  } else {
    const double x = meta.spec.log_scale ? std::log10(value) : value;
    const int b = std::clamp(static_cast<int>((x - meta.origin) * meta.inv_width),
                             0, meta.spec.bins - 1);
    bucket = static_cast<std::size_t>(b) + 1;
  }
  HistogramCell& cell = local_shard().histograms[slot];
  cell.buckets[bucket].fetch_add(1, std::memory_order_relaxed);
  if (cell.count.fetch_add(1, std::memory_order_relaxed) == 0) {
    cell.min.store(value, std::memory_order_relaxed);
    cell.max.store(value, std::memory_order_relaxed);
  } else {
    atomic_min(cell.min, value);
    atomic_max(cell.max, value);
  }
  atomic_add(cell.sum, value);
}

Snapshot Registry::snapshot() {
  std::lock_guard lock{mutex_};
  Snapshot snap;

  snap.counters.resize(counter_names_.size());
  for (std::size_t i = 0; i < counter_names_.size(); ++i)
    snap.counters[i].name = counter_names_[i];
  snap.histograms.resize(histogram_names_.size());
  for (std::size_t i = 0; i < histogram_names_.size(); ++i) {
    HistogramSnapshot& h = snap.histograms[i];
    h.name = histogram_names_[i];
    h.spec = histogram_meta_[i].spec;
    h.upper_edges = histogram_meta_[i].upper_edges;
    h.counts.assign(static_cast<std::size_t>(h.spec.bins) + 2, 0);
  }

  for (const auto& shard : shards_) {
    for (std::size_t i = 0; i < snap.counters.size(); ++i)
      snap.counters[i].value +=
          shard->counters[i].load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < snap.histograms.size(); ++i) {
      HistogramSnapshot& h = snap.histograms[i];
      const HistogramCell& cell = shard->histograms[i];
      const std::uint64_t n = cell.count.load(std::memory_order_relaxed);
      if (n == 0) continue;
      for (std::size_t b = 0; b < h.counts.size(); ++b)
        h.counts[b] += cell.buckets[b].load(std::memory_order_relaxed);
      const double mn = cell.min.load(std::memory_order_relaxed);
      const double mx = cell.max.load(std::memory_order_relaxed);
      if (h.count == 0 || mn < h.min) h.min = mn;
      if (h.count == 0 || mx > h.max) h.max = mx;
      h.count += n;
      h.sum += cell.sum.load(std::memory_order_relaxed);
    }
  }

  const auto by_name = [](const auto& a, const auto& b) { return a.name < b.name; };
  std::sort(snap.counters.begin(), snap.counters.end(), by_name);
  std::sort(snap.histograms.begin(), snap.histograms.end(), by_name);
  return snap;
}

void Registry::zero_shard(Shard& shard) {
  for (auto& c : shard.counters) c.store(0, std::memory_order_relaxed);
  for (auto& h : shard.histograms) {
    for (auto& b : h.buckets) b.store(0, std::memory_order_relaxed);
    h.count.store(0, std::memory_order_relaxed);
    h.sum.store(0.0, std::memory_order_relaxed);
    h.min.store(0.0, std::memory_order_relaxed);
    h.max.store(0.0, std::memory_order_relaxed);
  }
}

void Registry::restore_counter(std::string_view name, std::uint64_t value) {
  const std::uint32_t slot = register_counter(name);
  Shard& mine = local_shard();  // may lock; acquire before the scrape lock
  std::uint64_t current = 0;
  {
    std::lock_guard lock{mutex_};
    for (const auto& shard : shards_)
      current += shard->counters[slot].load(std::memory_order_relaxed);
  }
  // Unsigned wrap-around makes the delta-add exact even when the current
  // merged total already exceeds the checkpointed value.
  mine.counters[slot].fetch_add(value - current, std::memory_order_relaxed);
}

void Registry::zero() {
  std::lock_guard lock{mutex_};
  for (const auto& shard : shards_) zero_shard(*shard);
}

ScopedTimer::ScopedTimer(const Histogram& histogram)
    : histogram_(histogram),
      start_ns_(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now().time_since_epoch())
              .count())) {}

ScopedTimer::~ScopedTimer() {
  const auto now = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
  histogram_.observe(static_cast<double>(now - start_ns_) * 1e-9);
}

}  // namespace aqua::obs
