// Scaling battery for the epoch fan-out (one pool index per sensor): fleets
// of every size, fewer sensors than workers included, step every sensor
// exactly once per epoch; 1k-sensor bit-identity across thread counts;
// mid-run switches between pools of different sizes and serial epochs; the
// "which worker runs a sensor never changes RNG stream consumption"
// property; task accounting on the pool (one task per sensor per epoch); a
// returned pooled epoch as a quiescent point for tracing; and scheduling
// telemetry that reports what the workers measurably did.
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
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

// --- fleet fixtures ---------------------------------------------------------

struct District {
  hydro::WaterNetwork net;
  std::vector<SensorPlacement> placements;
};

// Replicas of the bench district with one sensor per pipe (32 each);
// replicas are hydraulically independent so the solve stays cheap at 1k
// sensors.
District make_district(std::size_t replicas) {
  District d{hydro::replicated_district(replicas), {}};
  for (hydro::WaterNetwork::PipeId p = 0; p < d.net.pipe_count(); ++p)
    d.placements.push_back(SensorPlacement{p, 0.0});
  return d;
}

// Short epochs keep a 1k-sensor run inside the tier-1 budget; the contract
// is epoch-length independent.
FleetConfig make_config() {
  FleetConfig cfg;
  cfg.sensor.isif = cta::coarse_isif_config();
  cfg.sensor.cta.output_cutoff = util::hertz(2.0);
  cfg.root_seed = 20260808;
  cfg.epoch = Seconds{0.02};
  cfg.demand_factor = diurnal_demand_pattern(Seconds{4.0});
  return cfg;
}

void expect_traces_equal(const FleetEngine& a, const FleetEngine& b,
                         const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& ta = a.node(i).trace();
    const auto& tb = b.node(i).trace();
    ASSERT_EQ(ta.size(), tb.size()) << label << " sensor " << i;
    for (std::size_t k = 0; k < ta.size(); ++k) {
      ASSERT_EQ(bits(ta[k].bridge_voltage), bits(tb[k].bridge_voltage))
          << label << " s" << i << " k" << k;
      ASSERT_EQ(bits(ta[k].estimate_mps), bits(tb[k].estimate_mps))
          << label << " s" << i << " k" << k;
      ASSERT_EQ(bits(ta[k].true_mean_mps), bits(tb[k].true_mean_mps))
          << label << " s" << i << " k" << k;
    }
  }
}

// --- the fan-out covers the fleet ---------------------------------------------

// Fleets smaller than, near and far above the worker counts, on 3 and 4
// workers. Each must step every sensor exactly once per epoch — none
// skipped, none claimed twice — and reproduce the serial traces.
TEST(FleetScaling, EveryFleetSizeAdvancesEverySensorExactlyOncePerEpoch) {
  util::ThreadPool pool3{3};
  util::ThreadPool pool4{4};
  for (std::size_t sensors : {std::size_t{1}, std::size_t{9},
                              std::size_t{31}, std::size_t{100},
                              std::size_t{203}}) {
    District ds = make_district(7);
    ds.placements.resize(sensors);
    FleetEngine serial(ds.net, ds.placements, make_config());
    serial.set_shared_fit(cta::KingFit{0.9, 1.1, 0.5});
    serial.run(Seconds{0.04});
    for (util::ThreadPool* pool : {&pool3, &pool4}) {
      District d = make_district(7);
      d.placements.resize(sensors);
      FleetEngine engine(d.net, d.placements, make_config());
      engine.set_shared_fit(cta::KingFit{0.9, 1.1, 0.5});
      engine.step_epoch(pool);
      engine.step_epoch(pool);
      const std::string label = std::to_string(sensors) + " sensors on " +
                                std::to_string(pool->thread_count()) +
                                " workers";
      for (std::size_t i = 0; i < engine.size(); ++i)
        ASSERT_EQ(engine.node(i).trace().size(), 2u) << label << ", sensor " << i;
      expect_traces_equal(serial, engine, label);
    }
  }
}

// --- 1k-sensor determinism across thread counts -------------------------------

std::uint64_t run_fleet(unsigned threads, std::size_t replicas,
                        long long epochs, std::size_t* sample_count) {
  District d = make_district(replicas);
  FleetEngine engine(d.net, d.placements, make_config());
  engine.set_shared_fit(cta::KingFit{0.9, 1.1, 0.5});
  std::unique_ptr<util::ThreadPool> pool;
  if (threads > 0) pool = std::make_unique<util::ThreadPool>(threads);
  for (long long e = 0; e < epochs; ++e) engine.step_epoch(pool.get());
  if (sample_count != nullptr) {
    *sample_count = 0;
    for (std::size_t i = 0; i < engine.size(); ++i)
      *sample_count += engine.node(i).trace().size();
  }
  return fault::fleet_trace_checksum(engine);
}

TEST(FleetScaling, ThousandSensorsBitIdenticalAcrossThreadCounts) {
  constexpr std::size_t kReplicas = 32;  // 1024 sensors
  constexpr long long kEpochs = 3;
  std::size_t serial_samples = 0;
  const std::uint64_t serial =
      run_fleet(0, kReplicas, kEpochs, &serial_samples);
  EXPECT_EQ(serial_samples, kReplicas * 32 * kEpochs);
  for (unsigned threads : {1u, 2u, 4u, 8u}) {
    std::size_t samples = 0;
    const std::uint64_t checksum =
        run_fleet(threads, kReplicas, kEpochs, &samples);
    EXPECT_EQ(samples, serial_samples) << threads << " threads";
    EXPECT_EQ(checksum, serial) << threads << " threads";
  }
}

// --- mid-run changes of execution path ----------------------------------------

// One engine switches between pools of two sizes and the serial path from
// epoch to epoch. A serial engine must see the same traces.
TEST(FleetScaling, MidRunChunkAndThreadChangesAreBitIdentical) {
  constexpr std::size_t kReplicas = 2;
  District da = make_district(kReplicas);
  da.placements.resize(60);
  FleetEngine baseline(da.net, da.placements, make_config());
  baseline.set_shared_fit(cta::KingFit{0.9, 1.1, 0.5});
  baseline.run(Seconds{0.12});  // 6 epochs, serial

  District db = make_district(kReplicas);
  db.placements.resize(60);
  FleetEngine engine(db.net, db.placements, make_config());
  engine.set_shared_fit(cta::KingFit{0.9, 1.1, 0.5});
  util::ThreadPool pool4{4};
  util::ThreadPool pool3{3};
  engine.step_epoch(&pool4);
  engine.step_epoch(&pool4);
  engine.step_epoch(&pool3);
  engine.step_epoch(&pool3);
  engine.step_epoch(nullptr);
  engine.step_epoch(&pool4);
  EXPECT_EQ(engine.epochs(), 6);

  expect_traces_equal(baseline, engine, "serial vs mixed-path pool runs");
}

// --- RNG stream consumption is independent of the worker assignment ---------

// The property behind all of the above: a sensor's RNG stream position after
// N epochs is a pure function of (root seed, sensor index, N). A worker's
// shard of the fleet is whatever sensors it happens to claim; run the same
// fleet serially, on one worker that claims every sensor, and with sensors
// interleaved across eight workers, and compare every node's RNG
// fingerprint — if any code path consumed draws depending on the claim
// order or on which worker ran the sensor, the fingerprints diverge.
TEST(FleetScaling, ShardAssignmentNeverChangesRngConsumption) {
  constexpr std::size_t kReplicas = 4;  // 128 sensors
  const auto fingerprints = [](util::ThreadPool* pool) {
    District d = make_district(kReplicas);
    FleetEngine engine(d.net, d.placements, make_config());
    engine.set_shared_fit(cta::KingFit{0.9, 1.1, 0.5});
    engine.step_epoch(pool);
    engine.step_epoch(pool);
    std::vector<std::uint64_t> prints;
    prints.reserve(engine.size());
    for (std::size_t i = 0; i < engine.size(); ++i)
      prints.push_back(engine.node(i).rng_fingerprint());
    return prints;
  };

  util::ThreadPool pool1{1};
  util::ThreadPool pool8{8};
  const auto serial = fingerprints(nullptr);
  const auto one_worker = fingerprints(&pool1);
  const auto striped = fingerprints(&pool8);

  ASSERT_EQ(serial.size(), one_worker.size());
  ASSERT_EQ(serial.size(), striped.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], one_worker[i]) << "sensor " << i;
    EXPECT_EQ(serial[i], striped[i]) << "sensor " << i;
  }
}

// --- task accounting ----------------------------------------------------------

std::uint64_t pool_tasks_completed() {
  const auto snap = obs::Registry::instance().snapshot();
  for (const auto& c : snap.counters)
    if (c.name == "util.thread_pool.tasks") return c.value;
  return 0;
}

// Each pooled epoch is one pool task per sensor — a due sensor's advance and
// re-commission are one task, and no task is a no-op. A task is counted
// before parallel_for returns, so the count is complete when step_epoch
// returns.
TEST(FleetScaling, OneTaskPerSensorPerEpoch) {
  District d = make_district(1);  // 32 sensors
  FleetEngine engine(d.net, d.placements, make_config());
  engine.set_shared_fit(cta::KingFit{0.9, 1.1, 0.5});
  util::ThreadPool pool{4};

  const std::uint64_t before = pool_tasks_completed();
  constexpr long long kEpochs = 5;
  for (long long e = 0; e < kEpochs; ++e) engine.step_epoch(&pool);
  EXPECT_EQ(pool_tasks_completed() - before,
            static_cast<std::uint64_t>(kEpochs) * engine.size());

  const std::vector<std::size_t> due{0, 7, 31};
  const std::uint64_t before_due = pool_tasks_completed();
  engine.step_epoch(&pool, due, Seconds{0.02});
  EXPECT_EQ(pool_tasks_completed() - before_due, engine.size());
}

// --- a returned pooled epoch is a quiescent point for tracing ----------------

// Spans named `name` whose begin and end both sit on one track, or -1 if any
// track holds an end without its begin or a begin without its end.
long long closed_spans(const obs::TraceSnapshot& snap, std::string_view name) {
  long long count = 0;
  for (const obs::TraceTrack& track : snap.tracks) {
    std::vector<const char*> open;
    for (const obs::TraceEvent& ev : track.events) {
      if (ev.kind == obs::TraceEventKind::kSpanBegin) {
        open.push_back(ev.name);
      } else if (ev.kind == obs::TraceEventKind::kSpanEnd) {
        if (open.empty() || std::string_view{open.back()} != ev.name) return -1;
        if (name == ev.name) ++count;
        open.pop_back();
      }
    }
    if (!open.empty()) return -1;
  }
  return count;
}

// The benchmark's traced passes snapshot and clear the recorder after every
// step_epoch. That is only sound if no pool worker still emits once the
// epoch has returned — each worker's own `team.epoch` stay span included —
// else a late end event lands after the clear and the next snapshot opens
// with an orphan. Every snapshot must hold nothing unmatched and one closed
// stay span per worker that entered the epoch: at least one, and at most
// one per worker (a worker that wakes after the epoch's last sensor has
// finished never enters it).
TEST(FleetScaling, TracedPooledEpochsAreQuiescentOnReturn) {
  District d = make_district(1);
  d.placements.resize(4);  // cheap epochs: many boundaries per second
  FleetEngine engine(d.net, d.placements, make_config());
  engine.set_shared_fit(cta::KingFit{0.9, 1.1, 0.5});
  util::ThreadPool pool{4};

  obs::TraceRecorder& recorder = obs::TraceRecorder::instance();
  recorder.clear();
  obs::TraceRecorder::set_enabled(true);
  constexpr int kEpochs = 64;
  for (int e = 0; e < kEpochs; ++e) {
    engine.step_epoch(&pool);
    const obs::TraceSnapshot snap = recorder.snapshot();
    recorder.clear();
    EXPECT_EQ(snap.dropped_total, 0u) << "epoch " << e;
    const long long stays = closed_spans(snap, "team.epoch");
    EXPECT_GE(stays, 1) << "epoch " << e;  // -1 would mean an unmatched event
    EXPECT_LE(stays, static_cast<long long>(pool.thread_count()))
        << "epoch " << e;
  }
  obs::TraceRecorder::set_enabled(false);
  recorder.clear();
}

// --- scheduling telemetry -------------------------------------------------------

obs::HistogramSnapshot histogram(const char* name) {
  const obs::Snapshot snap = obs::Registry::instance().snapshot();
  for (const obs::HistogramSnapshot& h : snap.histograms)
    if (h.name == name) return h;
  return obs::HistogramSnapshot{};
}

// The imbalance and utilisation histograms come from the measured busy time
// of each worker, not from a prediction. A one-sensor fleet is the
// one-worker plan: whichever worker claims its only sensor does all the work
// while three claim nothing, so the measured imbalance must read about 4
// (the worker count) and the utilisation about 1/4.
TEST(FleetScaling, WorkerTelemetryShowsAOneWorkerEpoch) {
  District d = make_district(1);
  d.placements.resize(1);
  FleetConfig cfg = make_config();
  cfg.epoch = Seconds{0.1};  // a busy time far above the idle workers' µs
  FleetEngine engine(d.net, d.placements, cfg);
  engine.set_shared_fit(cta::KingFit{0.9, 1.1, 0.5});
  util::ThreadPool pool{4};

  const obs::HistogramSnapshot imb0 = histogram("fleet.worker_imbalance");
  const obs::HistogramSnapshot util0 = histogram("fleet.worker_utilization");
  constexpr int kEpochs = 3;
  for (int e = 0; e < kEpochs; ++e) engine.step_epoch(&pool);
  engine.step_epoch(nullptr);  // serial epochs record no scheduling telemetry
  const obs::HistogramSnapshot imb = histogram("fleet.worker_imbalance");
  const obs::HistogramSnapshot util = histogram("fleet.worker_utilization");

  ASSERT_EQ(imb.count - imb0.count, static_cast<std::uint64_t>(kEpochs));
  ASSERT_EQ(util.count - util0.count, static_cast<std::uint64_t>(kEpochs));
  const double mean_imbalance = (imb.sum - imb0.sum) / kEpochs;
  const double mean_util = (util.sum - util0.sum) / kEpochs;
  EXPECT_GT(mean_imbalance, 3.5);
  EXPECT_LE(mean_imbalance, 4.0 + 1e-9);
  EXPECT_LT(mean_util, 0.3);
}

}  // namespace
}  // namespace aqua::fleet
