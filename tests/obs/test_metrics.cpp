// Unit tests for the obs/ telemetry layer: registry semantics (idempotent
// registration, enable switch, zeroing), histogram binning edge cases,
// cross-thread shard merge + donation, and the JSON exporter.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <thread>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace {

using namespace aqua;

const obs::CounterSnapshot* find_counter(const obs::Snapshot& snap,
                                         const std::string& name) {
  for (const auto& c : snap.counters)
    if (c.name == name) return &c;
  return nullptr;
}

const obs::HistogramSnapshot* find_histogram(const obs::Snapshot& snap,
                                             const std::string& name) {
  for (const auto& h : snap.histograms)
    if (h.name == name) return &h;
  return nullptr;
}

std::uint64_t counter_value(const std::string& name) {
  const auto snap = obs::Registry::instance().snapshot();
  const auto* c = find_counter(snap, name);
  return c != nullptr ? c->value : 0;
}

TEST(ObsCounter, AddsAndSnapshotsByName) {
  const obs::Counter counter{"test.counter.basic"};
  const std::uint64_t before = counter_value("test.counter.basic");
  counter.add();
  counter.add(41);
  EXPECT_EQ(counter_value("test.counter.basic"), before + 42);
}

TEST(ObsCounter, RegistrationIsIdempotent) {
  const obs::Counter a{"test.counter.shared"};
  const obs::Counter b{"test.counter.shared"};  // same slot
  const std::uint64_t before = counter_value("test.counter.shared");
  a.add(1);
  b.add(2);
  EXPECT_EQ(counter_value("test.counter.shared"), before + 3);

  const auto snap = obs::Registry::instance().snapshot();
  int seen = 0;
  for (const auto& c : snap.counters)
    if (c.name == "test.counter.shared") ++seen;
  EXPECT_EQ(seen, 1);
}

TEST(ObsCounter, DisabledCollectionDropsUpdates) {
  const obs::Counter counter{"test.counter.gated"};
  const std::uint64_t before = counter_value("test.counter.gated");
  obs::Registry::set_enabled(false);
  counter.add(100);
  obs::Registry::set_enabled(true);
  EXPECT_EQ(counter_value("test.counter.gated"), before);
  counter.add(1);
  EXPECT_EQ(counter_value("test.counter.gated"), before + 1);
}

TEST(ObsHistogram, LinearBinningAndOverflow) {
  const obs::HistogramSpec spec{0.0, 10.0, 10, false};
  const obs::Histogram h{"test.hist.linear", spec};

  h.observe(-1.0);  // underflow
  h.observe(0.0);   // first bin
  h.observe(4.999); // bin 5 (index 5 in counts: [0]=under)
  h.observe(9.999); // last regular bin
  h.observe(10.0);  // at hi → overflow
  h.observe(1e9);   // overflow
  h.observe(std::numeric_limits<double>::quiet_NaN());  // underflow (by contract)

  const auto snap = obs::Registry::instance().snapshot();
  const auto* hs = find_histogram(snap, "test.hist.linear");
  ASSERT_NE(hs, nullptr);
  ASSERT_EQ(hs->counts.size(), 12u);
  EXPECT_EQ(hs->counts.front(), 2u);  // -1 and NaN
  EXPECT_EQ(hs->counts.back(), 2u);   // 10.0 and 1e9
  EXPECT_EQ(hs->counts[1], 1u);       // 0.0
  EXPECT_EQ(hs->counts[5], 1u);       // 4.999
  EXPECT_EQ(hs->counts[10], 1u);      // 9.999
  EXPECT_EQ(hs->count, 7u);
  EXPECT_EQ(hs->min, -1.0);
  EXPECT_EQ(hs->max, 1e9);
  ASSERT_EQ(hs->upper_edges.size(), 10u);
  EXPECT_DOUBLE_EQ(hs->upper_edges.front(), 1.0);
  EXPECT_DOUBLE_EQ(hs->upper_edges.back(), 10.0);
}

TEST(ObsHistogram, LogBinningCoversDecadesEvenly) {
  const obs::HistogramSpec spec{1e-3, 1.0, 3, true};  // one bin per decade
  const obs::Histogram h{"test.hist.log", spec};
  h.observe(2e-3);   // decade [1e-3, 1e-2)
  h.observe(2e-2);   // decade [1e-2, 1e-1)
  h.observe(0.2);    // decade [1e-1, 1)
  const auto snap = obs::Registry::instance().snapshot();
  const auto* hs = find_histogram(snap, "test.hist.log");
  ASSERT_NE(hs, nullptr);
  EXPECT_EQ(hs->counts[1], 1u);
  EXPECT_EQ(hs->counts[2], 1u);
  EXPECT_EQ(hs->counts[3], 1u);
  EXPECT_NEAR(hs->upper_edges[0], 1e-2, 1e-12);
  EXPECT_NEAR(hs->upper_edges[1], 1e-1, 1e-12);
  EXPECT_DOUBLE_EQ(hs->upper_edges[2], 1.0);  // pinned exactly to hi
}

TEST(ObsHistogram, SpecIsFixedByFirstRegistration) {
  const obs::HistogramSpec first{0.0, 1.0, 4, false};
  const obs::Histogram a{"test.hist.fixed_spec", first};
  // A second registration with a different spec maps to the same metric and
  // keeps the original binning.
  const obs::Histogram b{"test.hist.fixed_spec",
                         obs::HistogramSpec{0.0, 100.0, 8, false}};
  b.observe(0.5);
  const auto snap = obs::Registry::instance().snapshot();
  const auto* hs = find_histogram(snap, "test.hist.fixed_spec");
  ASSERT_NE(hs, nullptr);
  EXPECT_EQ(hs->spec.bins, 4);
  EXPECT_DOUBLE_EQ(hs->spec.hi, 1.0);
}

TEST(ObsHistogram, RejectsBadSpecs) {
  EXPECT_THROW(obs::Histogram("test.hist.bad_range",
                              obs::HistogramSpec{1.0, 1.0, 4, false}),
               std::invalid_argument);
  EXPECT_THROW(obs::Histogram("test.hist.bad_log_lo",
                              obs::HistogramSpec{0.0, 1.0, 4, true}),
               std::invalid_argument);
  EXPECT_THROW(obs::Histogram("test.hist.bad_bins",
                              obs::HistogramSpec{0.0, 1.0, 0, false}),
               std::invalid_argument);
}

TEST(ObsShards, ThreadTotalsMergeAndSurviveThreadExit) {
  const obs::Counter counter{"test.counter.threads"};
  const std::uint64_t before = counter_value("test.counter.threads");

  constexpr int kThreads = 8;
  constexpr int kPerThread = 1000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) counter.add(1);
    });
  for (auto& t : threads) t.join();

  // All worker threads have exited; their shards were donated to the free
  // list and must still contribute to the merged total.
  EXPECT_EQ(counter_value("test.counter.threads"),
            before + kThreads * kPerThread);
}

TEST(ObsRegistry, ZeroClearsEveryMetricKind) {
  const obs::Counter counter{"test.zero.counter"};
  const obs::Histogram hist{"test.zero.hist",
                            obs::HistogramSpec{0.0, 1.0, 4, false}};
  counter.add(5);
  hist.observe(0.5);
  obs::Registry::instance().zero();

  const auto snap = obs::Registry::instance().snapshot();
  EXPECT_EQ(find_counter(snap, "test.zero.counter")->value, 0u);
  const auto* hs = find_histogram(snap, "test.zero.hist");
  EXPECT_EQ(hs->count, 0u);
  for (const auto c : hs->counts) EXPECT_EQ(c, 0u);
}

// At a quiescent point every histogram's total is the sum of its buckets: an
// observation lands in exactly one bucket (NaN and out-of-range values in
// the under/overflow ones) and counts once, whichever thread's shard takes
// it. zero() keeps the invariant.
TEST(ObsHistogram, CountEqualsBucketSumAtAQuiescentPoint) {
  const obs::Histogram hist{"test.hist.invariant",
                            obs::HistogramSpec{0.0, 1.0, 8, false}};
  const auto count_of = [](const obs::Snapshot& snap) {
    const auto* h = find_histogram(snap, "test.hist.invariant");
    return h != nullptr ? h->count : 0;
  };
  const auto expect_buckets_sum_to_count = [](const obs::Snapshot& snap) {
    for (const obs::HistogramSnapshot& h : snap.histograms) {
      std::uint64_t sum = 0;
      for (const std::uint64_t c : h.counts) sum += c;
      EXPECT_EQ(sum, h.count) << h.name;
    }
  };
  const std::uint64_t before =
      count_of(obs::Registry::instance().snapshot());

  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&hist, t] {
      for (int i = 0; i < kPerThread; ++i)
        hist.observe(i % 97 == 0 ? std::nan("")
                                 : (i * 7 + t) % 23 / 20.0 - 0.05);
    });
  for (auto& th : threads) th.join();

  const obs::Snapshot snap = obs::Registry::instance().snapshot();
  EXPECT_EQ(count_of(snap) - before,
            static_cast<std::uint64_t>(kThreads * kPerThread));
  expect_buckets_sum_to_count(snap);

  obs::Registry::instance().zero();
  const obs::Snapshot zeroed = obs::Registry::instance().snapshot();
  EXPECT_EQ(count_of(zeroed), 0u);
  expect_buckets_sum_to_count(zeroed);
}

TEST(ObsScopedTimer, ObservesElapsedSeconds) {
  const obs::Histogram h{"test.timer.hist"};
  const auto count_of = [&] {
    const auto snap = obs::Registry::instance().snapshot();
    const auto* hs = find_histogram(snap, "test.timer.hist");
    return hs != nullptr ? hs->count : 0;
  };
  const std::uint64_t before = count_of();
  { const obs::ScopedTimer timer{h}; }
  const auto snap = obs::Registry::instance().snapshot();
  const auto* hs = find_histogram(snap, "test.timer.hist");
  ASSERT_NE(hs, nullptr);
  EXPECT_EQ(hs->count, before + 1);
  EXPECT_GE(hs->max, 0.0);
}

TEST(ObsJson, SnapshotRendersSortedAndParsable) {
  const obs::Counter c{"test.json.counter"};
  const obs::Histogram h{"test.json.hist",
                         obs::HistogramSpec{0.0, 2.0, 2, false}};
  c.add(7);
  h.observe(0.5);
  h.observe(1.5);

  const std::string json = obs::to_json(obs::Registry::instance().snapshot());
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"test.json.counter\""), std::string::npos);
  EXPECT_NE(json.find("\"upper_edges\""), std::string::npos);

  // Names must come out sorted (scrape order is shard order otherwise).
  const auto snap = obs::Registry::instance().snapshot();
  for (std::size_t i = 1; i < snap.counters.size(); ++i)
    EXPECT_LT(snap.counters[i - 1].name, snap.counters[i].name);

  // Braces/brackets balance — a cheap structural validity check.
  int braces = 0, brackets = 0;
  bool in_string = false;
  for (char ch : json) {
    if (ch == '"') in_string = !in_string;
    if (in_string) continue;
    braces += (ch == '{') - (ch == '}');
    brackets += (ch == '[') - (ch == ']');
    EXPECT_GE(braces, 0);
    EXPECT_GE(brackets, 0);
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

TEST(ObsJson, WriteFileRoundTrips) {
  const std::string path = "test_obs_metrics.json";
  obs::write_file(path, "{\"ok\": true}");
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), "{\"ok\": true}\n");
  in.close();
  std::remove(path.c_str());
}

}  // namespace
