// Functional tests of the fleet engine: calibrated sensors track the network
// ground truth, the diurnal pattern modulates what they see, the
// mass-balance report localizes a leak to the right junction (paper §6's
// "immediately localized and isolated" vision), the constructor refuses an
// epoch with no whole count, per-sensor calls refuse bad indices, a due
// re-commission inside the epoch matches one after it, an epoch claims its
// due sensors before the rest, and a node advances whole frames over a
// near-whole epoch.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "core/rig.hpp"
#include "fleet/fleet.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "state/serial.hpp"
#include "util/thread_pool.hpp"

namespace aqua::fleet {
namespace {

using util::Seconds;

struct District {
  hydro::WaterNetwork net;
  std::vector<SensorPlacement> placements;
  hydro::WaterNetwork::NodeId leak_candidate = 0;  // an interior junction
};

// Reservoir → trunk → two branch legs, sensors on all 5 pipes. The b leg is
// longer and draws more, so the a→b cross link carries a small but firmly
// positive flow at every diurnal factor (a symmetric district would leave it
// near zero and stall the solver at night demand).
District make_small_district() {
  District d;
  const auto res = d.net.add_reservoir(40.0);
  const auto hub = d.net.add_junction(2.0, 0.002);
  const auto a = d.net.add_junction(1.0, 0.002);
  const auto b = d.net.add_junction(1.0, 0.005);
  const auto a2 = d.net.add_junction(0.5, 0.003);
  using util::metres;
  using util::millimetres;
  d.net.add_pipe(res, hub, metres(300.0), millimetres(200.0));
  d.net.add_pipe(hub, a, metres(400.0), millimetres(150.0));
  d.net.add_pipe(hub, b, metres(600.0), millimetres(150.0));
  d.net.add_pipe(a, a2, metres(300.0), millimetres(100.0));
  d.net.add_pipe(a, b, metres(300.0), millimetres(100.0));
  for (hydro::WaterNetwork::PipeId p = 0; p < d.net.pipe_count(); ++p)
    d.placements.push_back(SensorPlacement{p, 0.0});
  d.leak_candidate = a;
  return d;
}

FleetConfig make_config() {
  FleetConfig cfg;
  cfg.sensor.isif = cta::fast_isif_config();
  // The monitoring cadence cares about epoch-scale response, not the paper's
  // 0.1 Hz reporting filter; 2 Hz keeps the estimate tracking the epoch.
  cfg.sensor.cta.output_cutoff = util::hertz(2.0);
  cfg.root_seed = 7;
  cfg.epoch = Seconds{0.25};
  return cfg;
}

TEST(FleetEngine, CalibratedSensorsTrackNetworkTruth) {
  District d = make_small_district();
  FleetEngine engine(d.net, d.placements, make_config());
  engine.commission(Seconds{0.3});
  const std::vector<double> speeds{0.05, 0.2, 0.5, 0.9};
  engine.calibrate(speeds, Seconds{0.3});
  engine.run(Seconds{1.5});

  const FleetReport report = engine.report();
  ASSERT_EQ(report.sensors.size(), 5u);
  EXPECT_EQ(engine.solve_failures(), 0);
  for (const SensorSummary& s : report.sensors) {
    EXPECT_EQ(s.samples, 6u) << "sensor " << s.index;
    EXPECT_GT(s.final_true_mps, 0.0) << "sensor " << s.index;
    EXPECT_NEAR(s.final_estimate_mps, s.final_true_mps, 0.12)
        << "sensor " << s.index;
    EXPECT_LT(s.rms_error_mps, 0.2) << "sensor " << s.index;
  }
  // Forward flow on the trunk and both legs (the a→b cross link runs so slow
  // its direction channel is allowed to idle at 0).
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_EQ(engine.node(i).trace().back().direction, 1) << "sensor " << i;
}

TEST(FleetEngine, ParallelRunMatchesAccuracyOfSerial) {
  District d = make_small_district();
  FleetEngine engine(d.net, d.placements, make_config());
  util::ThreadPool pool{4};
  engine.commission(Seconds{0.3}, &pool);
  const std::vector<double> speeds{0.05, 0.2, 0.5, 0.9};
  engine.calibrate(speeds, Seconds{0.3}, &pool);
  engine.run(Seconds{1.0}, &pool);
  for (const SensorSummary& s : engine.report().sensors)
    EXPECT_NEAR(s.final_estimate_mps, s.final_true_mps, 0.12)
        << "sensor " << s.index;
}

TEST(FleetEngine, MassBalanceReportLocalizesLeak) {
  District d = make_small_district();
  FleetConfig cfg = make_config();
  cfg.sensor.isif = cta::coarse_isif_config();
  FleetEngine engine(d.net, d.placements, cfg);
  engine.commission(Seconds{0.3});
  const std::vector<double> speeds{0.05, 0.2, 0.5, 0.9};
  engine.calibrate(speeds, Seconds{0.3});

  engine.run(Seconds{1.5});
  const FleetReport healthy = engine.report();
  EXPECT_NEAR(healthy.total_leak_m3s, 0.0, 1e-12);
  for (const JunctionBalance& jb : healthy.balances) {
    EXPECT_TRUE(jb.fully_observed) << "node " << jb.node;
    EXPECT_LT(std::abs(jb.residual_m3s), 2e-3) << "node " << jb.node;
  }

  // Spring a pressure-driven leak at an interior junction and give the
  // output filters a moment to settle on the new operating point.
  engine.network().set_leak(d.leak_candidate, 1e-3);
  engine.run(Seconds{1.5});
  const FleetReport leaking = engine.report();
  EXPECT_GT(leaking.total_leak_m3s, 3e-3);

  const auto suspects = leaking.ranked_suspects();
  ASSERT_FALSE(suspects.empty());
  EXPECT_EQ(suspects.front().node, d.leak_candidate);
  EXPECT_GT(suspects.front().residual_m3s, 2e-3);
  // The residual approximates the escaping flow.
  EXPECT_NEAR(suspects.front().residual_m3s, leaking.total_leak_m3s,
              0.5 * leaking.total_leak_m3s);
}

TEST(FleetEngine, DiurnalPatternModulatesVelocity) {
  District d = make_small_district();
  FleetConfig cfg = make_config();
  cfg.sensor.isif = cta::coarse_isif_config();
  cfg.demand_factor = diurnal_demand_pattern(Seconds{3.0});
  FleetEngine engine(d.net, d.placements, cfg);
  engine.set_shared_fit(cta::KingFit{0.9, 1.1, 0.5});
  engine.commission(Seconds{0.25});
  engine.run(Seconds{3.0});

  const auto& trunk = engine.node(0).trace();
  ASSERT_FALSE(trunk.empty());
  double lo = trunk.front().true_mean_mps, hi = lo;
  for (const TraceSample& s : trunk) {
    lo = std::min(lo, s.true_mean_mps);
    hi = std::max(hi, s.true_mean_mps);
  }
  // Demand swings 0.3×..1.6× over the compressed day; the trunk velocity must
  // visibly follow (head losses make it sub-proportional).
  EXPECT_GT(hi, 2.0 * lo);
  EXPECT_GT(lo, 0.0);
}

TEST(FleetEngine, UncalibratedSensorsRecordZeroEstimate) {
  District d = make_small_district();
  FleetEngine engine(d.net, d.placements, make_config());
  engine.commission(Seconds{0.25});
  engine.run(Seconds{0.5});
  for (std::size_t i = 0; i < engine.size(); ++i) {
    EXPECT_FALSE(engine.node(i).calibrated());
    for (const TraceSample& s : engine.node(i).trace())
      EXPECT_EQ(s.estimate_mps, 0.0);
  }
}

TEST(FleetEngine, AccessorsAndLatestEstimates) {
  District d = make_small_district();
  FleetEngine engine(d.net, d.placements, make_config());
  EXPECT_EQ(engine.size(), 5u);
  EXPECT_EQ(engine.now().value(), 0.0);
  for (std::size_t i = 0; i < engine.size(); ++i) {
    EXPECT_EQ(engine.node(i).index(), i);
    EXPECT_EQ(engine.node(i).placement().pipe, i);
  }
  engine.set_shared_fit(cta::KingFit{0.9, 1.1, 0.5});
  engine.commission(Seconds{0.25});
  engine.run(Seconds{0.5});
  EXPECT_NEAR(engine.now().value(), 0.5, 1e-9);  // commission doesn't advance t
  const MaskedEstimates estimates = engine.latest_estimates_masked();
  ASSERT_EQ(estimates.values.size(), 5u);
  EXPECT_EQ(estimates.valid_count(), 5u);
  for (std::size_t i = 0; i < engine.size(); ++i)
    EXPECT_EQ(estimates.values[i], engine.node(i).trace().back().estimate_mps)
        << "sensor " << i;
}

TEST(FleetEngine, ThrowsWhenInitialSolveFails) {
  // A 0.1× demand factor starves this district into the laminar regime where
  // the successive-linearisation solve does not converge; the constructor
  // must say so instead of simulating garbage.
  District d = make_small_district();
  FleetConfig cfg = make_config();
  cfg.demand_factor = sim::Schedule{0.1};
  EXPECT_THROW(FleetEngine(d.net, d.placements, cfg), std::runtime_error);
}

TEST(FleetEngine, ThrowsOnOutOfRangePlacement) {
  District d = make_small_district();
  d.placements.push_back(SensorPlacement{99, 0.0});
  FleetConfig cfg = make_config();
  EXPECT_THROW(FleetEngine(d.net, d.placements, cfg), std::out_of_range);
}

TEST(FleetEngine, RefusesAnEpochWithNoWholeCount) {
  // An epoch that is not a finite positive duration would reach
  // util::steps_to_cover through run(), epochs_for() and CampaignRunner.
  // The constructor refuses it before it builds any sensor: with a
  // placement it could not build, the epoch is still what it reports.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double epoch : {0.0, -0.25, nan, inf}) {
    District d = make_small_district();
    FleetConfig cfg = make_config();
    cfg.epoch = Seconds{epoch};
    EXPECT_THROW(FleetEngine(d.net, d.placements, cfg), std::invalid_argument)
        << "epoch " << epoch;
    d.placements.push_back(SensorPlacement{99, 0.0});
    EXPECT_THROW(FleetEngine(d.net, d.placements, cfg), std::invalid_argument)
        << "epoch " << epoch;
  }
}

// --- per-sensor calls and due re-commissions ----------------------------------

// Every sensor's save_state image, in sensor order.
std::vector<std::vector<std::uint8_t>> node_images(const FleetEngine& engine) {
  std::vector<std::vector<std::uint8_t>> images;
  for (std::size_t i = 0; i < engine.size(); ++i) {
    state::Writer w;
    engine.node(i).save_state(w);
    images.push_back(w.take());
  }
  return images;
}

std::uint64_t sensor_steps() {
  for (const auto& c : obs::Registry::instance().snapshot().counters)
    if (c.name == "fleet.sensor_steps") return c.value;
  return 0;
}

// A commissioned engine one epoch into its run.
struct Warm {
  District d = make_small_district();
  FleetEngine engine{d.net, d.placements, make_config()};

  Warm() {
    engine.set_shared_fit(cta::KingFit{0.9, 1.1, 0.5});
    engine.commission(Seconds{0.25});
    engine.step_epoch();
  }
};

TEST(FleetEngine, RejectsOutOfRangeSensorIndex) {
  Warm w;
  FleetEngine& engine = w.engine;
  const std::vector<std::vector<std::uint8_t>> before = node_images(engine);
  EXPECT_THROW((void)engine.recommission(engine.size(), Seconds{0.1}),
               std::out_of_range);
  EXPECT_THROW(engine.set_estimate_valid(engine.size(), false),
               std::out_of_range);
  EXPECT_EQ(node_images(engine), before);
  EXPECT_EQ(engine.latest_estimates_masked().valid_count(), engine.size());
}

// A due list with an index out of range, a duplicate (two tasks on one node,
// a data race) or out of order is refused before the epoch touches the
// network or any sensor, serially and on a pool.
TEST(FleetEngine, RejectsBadDueListsBeforeTouchingAnySensor) {
  Warm w;
  FleetEngine& engine = w.engine;
  const std::vector<std::vector<std::uint8_t>> before = node_images(engine);
  const std::size_t n = engine.size();
  util::ThreadPool pool{2};
  for (util::ThreadPool* p : {static_cast<util::ThreadPool*>(nullptr), &pool}) {
    const std::vector<std::size_t> out_of_range{1, n};
    EXPECT_THROW(engine.step_epoch(p, out_of_range, Seconds{0.1}),
                 std::out_of_range);
    EXPECT_EQ(node_images(engine), before);
    const std::vector<std::size_t> duplicate{2, 2};
    EXPECT_THROW(engine.step_epoch(p, duplicate, Seconds{0.1}),
                 std::invalid_argument);
    EXPECT_EQ(node_images(engine), before);
    const std::vector<std::size_t> unsorted{3, 1};
    EXPECT_THROW(engine.step_epoch(p, unsorted, Seconds{0.1}),
                 std::invalid_argument);
    EXPECT_EQ(node_images(engine), before);
  }
  EXPECT_EQ(engine.epochs(), 1);
  EXPECT_EQ(engine.now().value(), 0.25);
}

// step_epoch(pool, {i, j}, settle) re-commissions inside the fan-out, right
// after each due sensor's advance. It must leave every node exactly as
// step_epoch(pool) followed by recommission(i) and recommission(j) does, and
// still advance every sensor exactly once.
TEST(FleetEngine, DueRecommissionsMatchRecommissionAfterTheEpoch) {
  constexpr Seconds kSettle{0.2};
  const std::vector<std::size_t> due{1, 3};
  for (const unsigned threads : {0u, 1u, 4u}) {
    std::unique_ptr<util::ThreadPool> pool;
    if (threads > 0) pool = std::make_unique<util::ThreadPool>(threads);
    Warm fused;
    Warm twin;
    // Give the reboot something to clear: a latched watchdog on sensor 1.
    for (Warm* w : {&fused, &twin})
      w->engine.node(1).anemometer().platform().firmware()
          .inject_overrun_cycles(1e6);

    const std::uint64_t steps_before = sensor_steps();
    fused.engine.step_epoch(pool.get(), due, kSettle);
    EXPECT_EQ(sensor_steps() - steps_before, fused.engine.size())
        << threads << " threads";

    twin.engine.step_epoch(pool.get());
    std::vector<isif::ChannelSelfTestResult> expected;
    for (const std::size_t i : due)
      expected.push_back(twin.engine.recommission(i, kSettle));

    EXPECT_EQ(node_images(fused.engine), node_images(twin.engine))
        << threads << " threads";
    for (std::size_t k = 0; k < due.size(); ++k) {
      const auto& got = fused.engine.node(due[k]).last_self_test();
      ASSERT_TRUE(got.has_value());
      EXPECT_EQ(got->measured_gain, expected[k].measured_gain);
      EXPECT_EQ(got->gain_error, expected[k].gain_error);
      EXPECT_EQ(got->pass, expected[k].pass);
    }
  }
}

// An epoch's items in claim order: the due sensors first, each advanced and
// then re-commissioned, then every other sensor in ascending order. One
// worker claims them in that order, and the caller runs them in it serially.
TEST(FleetEngine, PooledEpochClaimsDueSensorsFirstThenTheRest) {
  const std::vector<std::size_t> due{1, 3};
  // The sensor index of each `fleet.sensor` span, -1 for each
  // `fleet.recommission` span.
  const std::vector<double> expected{1.0, -1.0, 3.0, -1.0, 0.0, 2.0, 4.0};
  util::ThreadPool pool{1};
  obs::TraceRecorder& recorder = obs::TraceRecorder::instance();
  for (util::ThreadPool* p : {&pool, static_cast<util::ThreadPool*>(nullptr)}) {
    Warm w;
    recorder.clear();
    obs::TraceRecorder::set_enabled(true);
    w.engine.step_epoch(p, due, Seconds{0.1});
    obs::TraceRecorder::set_enabled(false);
    const obs::TraceSnapshot snap = recorder.snapshot();
    recorder.clear();
    EXPECT_EQ(snap.dropped_total, 0u);
    std::vector<double> order;
    for (const obs::TraceTrack& track : snap.tracks)
      for (const obs::TraceEvent& ev : track.events) {
        if (ev.kind != obs::TraceEventKind::kSpanBegin) continue;
        const std::string_view name{ev.name};
        if (name == "fleet.sensor") order.push_back(ev.value);
        if (name == "fleet.recommission") order.push_back(-1.0);
      }
    EXPECT_EQ(order, expected) << (p != nullptr ? "pool(1)" : "serial");
  }
}

TEST(SensorNode, AdvanceRunsWholeFramesForANearWholeEpoch) {
  // 4.001 s is 8002.000000000001 frames of 8 ticks at 16 kHz: the node runs
  // 8002 frames, not 8003.
  SensorNodeConfig cfg;
  cfg.isif = cta::coarse_isif_config();
  SensorNode node{0, SensorPlacement{}, cfg, util::millimetres(100.0),
                  util::Rng{56}};
  PipeState state;
  state.mean_velocity_mps = 0.2;
  state.point_velocity_mps = 0.2;
  node.advance(state, Seconds{4.001});
  const cta::CtaAnemometer& anemo = node.anemometer();
  EXPECT_EQ(std::llround(anemo.now().value() / anemo.tick_period().value()),
            8002 * cfg.isif.channel.decimation);
}

}  // namespace
}  // namespace aqua::fleet
