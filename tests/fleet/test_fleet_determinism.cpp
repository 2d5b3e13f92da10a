// The headline tests of the fleet engine: the same root seed must produce
// bit-identical per-sensor traces for ANY thread count — serial on the
// caller's thread, or fanned out over a thread pool of 1, 2 or 8
// workers. This is the determinism contract documented in fleet.hpp; any
// shared mutable state or scheduling-order dependence breaks it.
#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/rig.hpp"
#include "fault/campaign.hpp"
#include "fleet/fleet.hpp"
#include "hydro/replicated_district.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/thread_pool.hpp"


namespace aqua::fleet {
namespace {

using util::Seconds;

struct District {
  hydro::WaterNetwork net;
  std::vector<SensorPlacement> placements;
};

// Looped 8-junction district fed by one reservoir; a sensor on every one of
// the 10 pipes (full observability).
District make_district() {
  District d;
  const auto res = d.net.add_reservoir(40.0);
  const auto n1 = d.net.add_junction(2.0, 0.0015);
  const auto n2 = d.net.add_junction(2.0, 0.0025);
  const auto n3 = d.net.add_junction(1.5, 0.0025);
  const auto n4 = d.net.add_junction(1.0, 0.0020);
  const auto n5 = d.net.add_junction(1.0, 0.0020);
  const auto n6 = d.net.add_junction(0.5, 0.0015);
  const auto n7 = d.net.add_junction(0.5, 0.0015);
  using util::metres;
  using util::millimetres;
  d.net.add_pipe(res, n1, metres(300.0), millimetres(200.0));
  d.net.add_pipe(n1, n2, metres(400.0), millimetres(150.0));
  d.net.add_pipe(n1, n3, metres(400.0), millimetres(150.0));
  d.net.add_pipe(n2, n4, metres(300.0), millimetres(100.0));
  d.net.add_pipe(n3, n5, metres(300.0), millimetres(100.0));
  d.net.add_pipe(n2, n3, metres(300.0), millimetres(100.0));
  d.net.add_pipe(n4, n6, metres(250.0), millimetres(80.0));
  d.net.add_pipe(n5, n7, metres(250.0), millimetres(80.0));
  d.net.add_pipe(n4, n5, metres(250.0), millimetres(80.0));
  d.net.add_pipe(n6, n7, metres(250.0), millimetres(80.0));
  for (hydro::WaterNetwork::PipeId p = 0; p < d.net.pipe_count(); ++p)
    d.placements.push_back(SensorPlacement{p, 0.0});
  return d;
}

FleetConfig make_config() {
  FleetConfig cfg;
  cfg.sensor.isif = cta::coarse_isif_config();
  cfg.sensor.cta.output_cutoff = util::hertz(2.0);
  cfg.root_seed = 20260805;
  cfg.epoch = Seconds{0.25};
  cfg.demand_factor = diurnal_demand_pattern(Seconds{4.0});
  return cfg;
}

// Runs the full commission + co-simulation and returns every sensor's trace.
// threads == 0 means serial on the caller's thread (no pool at all).
std::vector<std::vector<TraceSample>> run_traces(unsigned threads,
                                                 std::uint64_t root_seed) {
  District d = make_district();
  FleetConfig cfg = make_config();
  cfg.root_seed = root_seed;
  FleetEngine engine(d.net, d.placements, cfg);
  engine.set_shared_fit(cta::KingFit{0.9, 1.1, 0.5});
  std::unique_ptr<util::ThreadPool> pool;
  if (threads > 0) pool = std::make_unique<util::ThreadPool>(threads);
  engine.commission(Seconds{0.2}, pool.get());
  engine.run(Seconds{1.0}, pool.get());
  std::vector<std::vector<TraceSample>> traces;
  traces.reserve(engine.size());
  for (std::size_t i = 0; i < engine.size(); ++i)
    traces.push_back(engine.node(i).trace());
  return traces;
}

// Bit-exact double comparison: == would conflate +0.0/−0.0 and choke on NaN;
// the contract is "same bits".
void expect_bit_identical(const std::vector<std::vector<TraceSample>>& a,
                          const std::vector<std::vector<TraceSample>>& b,
                          const char* label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (std::size_t s = 0; s < a.size(); ++s) {
    ASSERT_EQ(a[s].size(), b[s].size()) << label << " sensor " << s;
    for (std::size_t k = 0; k < a[s].size(); ++k) {
      const TraceSample& x = a[s][k];
      const TraceSample& y = b[s][k];
      const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
      ASSERT_EQ(bits(x.t_s), bits(y.t_s)) << label << " s" << s << " k" << k;
      ASSERT_EQ(bits(x.bridge_voltage), bits(y.bridge_voltage))
          << label << " s" << s << " k" << k;
      ASSERT_EQ(bits(x.filtered_voltage), bits(y.filtered_voltage))
          << label << " s" << s << " k" << k;
      ASSERT_EQ(bits(x.estimate_mps), bits(y.estimate_mps))
          << label << " s" << s << " k" << k;
      ASSERT_EQ(bits(x.true_mean_mps), bits(y.true_mean_mps))
          << label << " s" << s << " k" << k;
      ASSERT_EQ(x.direction, y.direction) << label << " s" << s << " k" << k;
    }
  }
}

TEST(FleetDeterminism, BitIdenticalTracesAtOneTwoAndEightThreads) {
  const auto one = run_traces(1, 42);
  const auto two = run_traces(2, 42);
  const auto eight = run_traces(8, 42);
  ASSERT_EQ(one.size(), 10u);
  ASSERT_FALSE(one[0].empty());
  expect_bit_identical(one, two, "1 vs 2 threads");
  expect_bit_identical(one, eight, "1 vs 8 threads");
}

TEST(FleetDeterminism, SerialVsParallelEquivalenceOnTenSensorNetwork) {
  const auto serial = run_traces(0, 42);    // no pool: caller's thread
  const auto parallel = run_traces(8, 42);  // pooled fan-out
  ASSERT_EQ(serial.size(), 10u);
  expect_bit_identical(serial, parallel, "serial vs 8-thread pool");
}

TEST(FleetDeterminism, DifferentRootSeedsProduceDifferentTraces) {
  // Guards that the per-sensor RNG streams actually feed the simulation: if
  // they were ignored, any seed would give the same traces and the two tests
  // above would pass vacuously.
  const auto a = run_traces(0, 1);
  const auto b = run_traces(0, 2);
  ASSERT_EQ(a.size(), b.size());
  bool any_difference = false;
  for (std::size_t s = 0; s < a.size() && !any_difference; ++s)
    for (std::size_t k = 0; k < a[s].size() && !any_difference; ++k)
      any_difference = a[s][k].bridge_voltage != b[s][k].bridge_voltage;
  EXPECT_TRUE(any_difference);
}

TEST(FleetDeterminism, MetricsCollectionDoesNotPerturbTraces) {
  // The obs/ layer's hard guarantee: instrumentation only observes, so the
  // traces are bit-identical whether collection is on or off — and with it
  // on, at any thread count (metrics are enabled by default, so the other
  // determinism tests already run instrumented; this pins the off-path too).
  obs::Registry::set_enabled(true);
  const auto instrumented_serial = run_traces(0, 42);
  const auto instrumented_pool = run_traces(8, 42);
  obs::Registry::set_enabled(false);
  const auto dark = run_traces(0, 42);
  obs::Registry::set_enabled(true);
  expect_bit_identical(instrumented_serial, dark, "metrics on vs off");
  expect_bit_identical(instrumented_serial, instrumented_pool,
                       "metrics on, serial vs 8 threads");
}

TEST(FleetDeterminism, TracingEnabledDoesNotPerturbTraces) {
  // Same hard guarantee for the event tracer: spans, instants and counters
  // are emitted into per-thread rings the datapath never reads back, so the
  // sensor traces are bit-identical with the recorder on or off — and with
  // it on, serial vs an 8-thread pool (tracing is off by default, so the
  // other determinism tests already pin the off-path).
  obs::TraceRecorder::set_enabled(true);
  const auto traced_serial = run_traces(0, 42);
  const auto traced_pool = run_traces(8, 42);
  obs::TraceRecorder::set_enabled(false);
  const auto dark = run_traces(0, 42);
  obs::TraceRecorder::instance().clear();
  expect_bit_identical(traced_serial, dark, "tracing on vs off");
  expect_bit_identical(traced_serial, traced_pool,
                       "tracing on, serial vs 8 threads");
}

std::uint64_t scrape_counter(const std::string& name) {
  const auto snap = obs::Registry::instance().snapshot();
  for (const auto& c : snap.counters)
    if (c.name == name) return c.value;
  return 0;
}

TEST(FleetDeterminism, DatapathCountersMatchAcrossThreadCounts) {
  // Counters driven by the simulation datapath (samples, epochs, PI events)
  // are part of the deterministic surface: serial and pooled runs must count
  // exactly the same events. (Thread-pool task counts depend on the thread
  // count, not the datapath, and are deliberately excluded.)
  const char* const kDeterministicCounters[] = {
      "fleet.epochs",
      "fleet.sensor_steps",
      "isif.channel.samples",
      "isif.channel.overload_blocks",
      "cta.pi.saturation_events",
      "cta.pi.antiwindup_holds",
      "cta.loop.adc_overload_ticks",
  };

  obs::Registry::instance().zero();
  (void)run_traces(0, 42);
  std::vector<std::uint64_t> serial_counts;
  for (const char* name : kDeterministicCounters)
    serial_counts.push_back(scrape_counter(name));

  obs::Registry::instance().zero();
  (void)run_traces(4, 42);
  for (std::size_t i = 0; i < serial_counts.size(); ++i)
    EXPECT_EQ(scrape_counter(kDeterministicCounters[i]), serial_counts[i])
        << kDeterministicCounters[i];

  // The run must actually have produced samples, or this test is vacuous.
  EXPECT_GT(serial_counts[0], 0u);  // fleet.epochs
  EXPECT_GT(serial_counts[2], 0u);  // isif.channel.samples
}

TEST(FleetDeterminism, PerSensorStreamsDiffer) {
  // Two sensors of the same run must not share a noise stream (stream ids are
  // the sensor indices; identical streams would correlate their turbulence).
  const auto traces = run_traces(0, 42);
  bool any_difference = false;
  for (std::size_t k = 0; k < traces[1].size() && !any_difference; ++k)
    any_difference =
        traces[1][k].bridge_voltage != traces[2][k].bridge_voltage;
  EXPECT_TRUE(any_difference);
}

TEST(FleetDeterminism, BenchFleetScenarioReproducesTheCommittedChecksum) {
  // bench_fleet's 32-sensor scenario, run serially: one replica of the bench
  // district (a reservoir feeding four radial chains of tapered pipes), one
  // probe on the axis of each of its 32 pipes. Its trace checksum is the one
  // bench_fleet prints for every mode, so any change to the bits of the
  // scalar chain — a reordered draw, a reassociated sum, an FMA contraction
  // — fails here.
  hydro::WaterNetwork net = hydro::replicated_district(1);
  std::vector<SensorPlacement> placements;
  for (hydro::WaterNetwork::PipeId p = 0; p < net.pipe_count(); ++p)
    placements.push_back(SensorPlacement{p, 0.0});

  FleetConfig cfg;
  cfg.sensor.isif = cta::coarse_isif_config();
  cfg.sensor.cta.output_cutoff = util::hertz(2.0);
  cfg.root_seed = 42;
  cfg.epoch = Seconds{0.25};
  cfg.demand_factor = diurnal_demand_pattern(Seconds{8.0});
  FleetEngine engine(net, placements, cfg);
  engine.set_shared_fit(cta::KingFit{0.9, 1.1, 0.5});
  engine.commission(Seconds{0.25});
  engine.run(Seconds{4.0});
  ASSERT_EQ(engine.size(), 32u);

  const std::uint64_t checksum = fault::fleet_trace_checksum(engine);
  EXPECT_EQ(checksum, 0x63ffe924fe51d05eull) << std::hex << checksum;
}

}  // namespace
}  // namespace aqua::fleet
