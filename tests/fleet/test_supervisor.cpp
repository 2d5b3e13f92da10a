// FleetSupervisor state machine: quarantine on hard faults, suspect streaks
// for soft ones, capped exponential backoff on re-commission, a failed
// re-commission self-test, probation, recovery, permanent failure — and the
// estimate-validity mask that keeps quarantined sensors out of downstream
// consumers.
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/rig.hpp"
#include "fleet/fleet.hpp"
#include "fleet/supervisor.hpp"
#include "isif/channel.hpp"
#include "obs/metrics.hpp"

namespace aqua::fleet {
namespace {

using util::Seconds;

struct District {
  hydro::WaterNetwork net;
  std::vector<SensorPlacement> placements;
};

// Two-pipe line (reservoir → a → b), one sensor per pipe — enough topology to
// exercise every supervision path at a fraction of the 10-pipe district cost.
District make_line() {
  District d;
  const auto res = d.net.add_reservoir(30.0);
  const auto a = d.net.add_junction(2.0, 0.002);
  const auto b = d.net.add_junction(1.0, 0.002);
  using util::metres;
  using util::millimetres;
  d.net.add_pipe(res, a, metres(200.0), millimetres(150.0));
  d.net.add_pipe(a, b, metres(200.0), millimetres(100.0));
  for (hydro::WaterNetwork::PipeId p = 0; p < d.net.pipe_count(); ++p)
    d.placements.push_back(SensorPlacement{p, 0.0});
  return d;
}

FleetConfig make_config() {
  FleetConfig cfg;
  cfg.sensor.isif = cta::coarse_isif_config();
  cfg.sensor.cta.output_cutoff = util::hertz(2.0);
  cfg.root_seed = 77;
  cfg.epoch = Seconds{0.25};
  return cfg;
}

struct Rig {
  District d;
  FleetEngine engine;
  std::unique_ptr<FleetSupervisor> supervisor_;

  explicit Rig(const SupervisorConfig& sup_cfg = {},
               const FleetConfig& cfg = make_config())
      : d(make_line()), engine(d.net, d.placements, cfg) {
    engine.set_shared_fit(cta::KingFit{0.9, 1.1, 0.5});
    engine.commission(Seconds{0.2});
    supervisor_ = std::make_unique<FleetSupervisor>(engine, sup_cfg);
  }

  FleetSupervisor& supervisor() { return *supervisor_; }

  void step(int epochs) {
    for (int e = 0; e < epochs; ++e) supervisor_->step();
  }
};

TEST(FleetSupervisor, HealthyFleetStaysInService) {
  Rig rig;
  rig.step(12);
  for (std::size_t i = 0; i < rig.engine.size(); ++i) {
    EXPECT_EQ(rig.supervisor().state(i), NodeHealthState::kHealthy);
    EXPECT_TRUE(rig.engine.estimate_valid(i));
  }
  EXPECT_EQ(rig.supervisor().in_service_count(), rig.engine.size());
  EXPECT_EQ(rig.supervisor().stats().quarantines, 0);
  EXPECT_EQ(rig.supervisor().stats().recommission_attempts, 0);
}

TEST(FleetSupervisor, HardFaultQuarantinesImmediately) {
  Rig rig;
  rig.step(4);
  rig.engine.node(1).anemometer().die().damage_membrane();
  rig.step(1);
  EXPECT_EQ(rig.supervisor().state(1), NodeHealthState::kQuarantined);
  EXPECT_FALSE(rig.engine.estimate_valid(1));
  EXPECT_EQ(rig.supervisor().supervision(1).quarantine_entries, 1);
  EXPECT_EQ(rig.supervisor().stats().quarantines, 1);
  // The other sensor is untouched.
  EXPECT_EQ(rig.supervisor().state(0), NodeHealthState::kHealthy);

  const MaskedEstimates masked = rig.engine.latest_estimates_masked();
  EXPECT_EQ(masked.valid[1], 0);
  EXPECT_EQ(masked.values[1], 0.0);  // pinned, not a stale pre-fault sample
  EXPECT_NE(masked.valid[0], 0);
  EXPECT_EQ(masked.valid_count(), 1u);
}

TEST(FleetSupervisor, SoftFaultNeedsConsecutiveStreak) {
  SupervisorConfig cfg;
  // Make the healthy flow read as out-of-range: a soft fault on every poll
  // once the output filter has ramped past the (absurdly low) range gate.
  cfg.health.range_max = util::metres_per_second(0.01);
  Rig rig(cfg);
  rig.step(1);  // first epoch still reads ~0 — the filter starts from zero
  ASSERT_EQ(rig.supervisor().state(1), NodeHealthState::kHealthy);
  rig.step(1);
  EXPECT_EQ(rig.supervisor().state(1), NodeHealthState::kSuspect);
  EXPECT_TRUE(rig.engine.estimate_valid(1));  // suspect is still in service
  rig.step(1);
  EXPECT_EQ(rig.supervisor().state(1), NodeHealthState::kSuspect);
  rig.step(1);  // third consecutive faulty poll = suspect_epochs
  EXPECT_EQ(rig.supervisor().state(1), NodeHealthState::kQuarantined);
  EXPECT_FALSE(rig.engine.estimate_valid(1));
}

TEST(FleetSupervisor, PermanentFaultExhaustsBackoffAndFails) {
  Rig rig;
  rig.step(2);
  rig.engine.node(0).anemometer().die().damage_membrane();
  rig.step(1);
  ASSERT_EQ(rig.supervisor().state(0), NodeHealthState::kQuarantined);

  // Walk through every re-commission attempt: the membrane never heals, so
  // each attempt relapses (or flunks self-test), the backoff doubles, and the
  // supervisor eventually gives up for good.
  rig.step(80);
  EXPECT_EQ(rig.supervisor().state(0), NodeHealthState::kFailed);
  EXPECT_EQ(rig.supervisor().supervision(0).recommission_attempts, 4);
  EXPECT_EQ(rig.supervisor().stats().failures, 1);
  EXPECT_FALSE(rig.engine.estimate_valid(0));
  // Backoff saturates at the configured cap, never beyond.
  EXPECT_LE(rig.supervisor().supervision(0).backoff_next, 16);

  // A failed sensor stays failed.
  rig.step(4);
  EXPECT_EQ(rig.supervisor().state(0), NodeHealthState::kFailed);
}

std::uint64_t counter(const char* name) {
  for (const auto& c : obs::Registry::instance().snapshot().counters)
    if (c.name == name) return c.value;
  return 0;
}

// A channel defect that survives the reboot: every output bit stuck low
// zeroes the self-test tone, so the first re-commission's self-test fails.
// The node stays quarantined, waits out a doubled backoff, and the failure
// is counted in the stats and in the telemetry.
TEST(FleetSupervisor, FailedSelfTestKeepsTheNodeQuarantined) {
  Rig rig;
  rig.step(2);
  rig.engine.node(0).anemometer().platform().channel(0).inject_fault(
      isif::ChannelFault{.stuck_low = 0xFFFF});
  for (int e = 0; e < 8 && rig.supervisor().state(0) !=
                               NodeHealthState::kQuarantined;
       ++e)
    rig.step(1);
  ASSERT_EQ(rig.supervisor().state(0), NodeHealthState::kQuarantined);
  const int backoff = rig.supervisor().supervision(0).backoff_next;
  const std::uint64_t failures_before =
      counter("fleet.supervisor.self_test_failures");

  for (int e = 0; e < 4 * backoff &&
                  rig.supervisor().supervision(0).recommission_attempts == 0;
       ++e)
    rig.step(1);
  const NodeSupervision& sup = rig.supervisor().supervision(0);
  ASSERT_EQ(sup.recommission_attempts, 1);
  ASSERT_TRUE(rig.engine.node(0).last_self_test().has_value());
  EXPECT_FALSE(rig.engine.node(0).last_self_test()->pass);
  EXPECT_EQ(rig.supervisor().state(0), NodeHealthState::kQuarantined);
  EXPECT_FALSE(rig.engine.estimate_valid(0));
  EXPECT_EQ(sup.backoff_next, 2 * backoff);
  EXPECT_EQ(rig.supervisor().stats().self_test_failures, 1);
  EXPECT_EQ(counter("fleet.supervisor.self_test_failures") - failures_before,
            1u);
  // The other sensor is untouched.
  EXPECT_EQ(rig.supervisor().state(1), NodeHealthState::kHealthy);
}

TEST(FleetSupervisor, TransientFaultRecoversThroughBackoff) {
  Rig rig;
  rig.step(4);
  // Watchdog overrun: latches in firmware until the supervisor's reboot.
  rig.engine.node(1).anemometer().platform().firmware().inject_overrun_cycles(
      1e6);
  rig.step(2);
  ASSERT_EQ(rig.supervisor().state(1), NodeHealthState::kQuarantined);
  EXPECT_FALSE(rig.engine.estimate_valid(1));

  // Backoff (2 epochs) → re-commission (reboot clears the latch) → probation
  // (4 clean polls) → healthy. 30 epochs is generous headroom.
  rig.step(30);
  EXPECT_EQ(rig.supervisor().state(1), NodeHealthState::kHealthy);
  EXPECT_TRUE(rig.engine.estimate_valid(1));
  const NodeSupervision& sup = rig.supervisor().supervision(1);
  EXPECT_EQ(sup.recoveries, 1);
  EXPECT_GE(sup.recovered_t_s, 0.0);
  // Recovery rearms the backoff for the next incident.
  EXPECT_EQ(sup.recommission_attempts, 0);
  EXPECT_EQ(sup.backoff_next, 2);
  EXPECT_EQ(rig.supervisor().stats().recoveries, 1);
}

TEST(FleetSupervisor, CommissionRunsAndReportsSelfTest) {
  Rig rig;
  for (std::size_t i = 0; i < rig.engine.size(); ++i) {
    const auto& result = rig.engine.node(i).last_self_test();
    ASSERT_TRUE(result.has_value());
    EXPECT_TRUE(result->pass);
  }
  rig.step(2);
  const FleetReport report = rig.engine.report();
  for (const SensorSummary& s : report.sensors) {
    EXPECT_TRUE(s.self_tested);
    EXPECT_TRUE(s.self_test_pass);
    EXPECT_LT(std::abs(s.self_test_gain_error), 1.0);
  }
}

TEST(FleetSupervisor, RecommissionReturnsSelfTestResult) {
  Rig rig;
  rig.step(2);
  const isif::ChannelSelfTestResult result =
      rig.engine.recommission(0, Seconds{0.3});
  EXPECT_TRUE(result.pass);
  EXPECT_TRUE(rig.engine.node(0).last_self_test().has_value());
  // The rebooted node keeps co-simulating.
  rig.step(2);
  EXPECT_TRUE(rig.engine.node(0).latest_sample().has_value());
}

TEST(FleetSupervisor, ConfigValidation) {
  District d = make_line();
  FleetEngine engine(d.net, d.placements, make_config());
  SupervisorConfig bad;
  bad.suspect_epochs = 0;
  EXPECT_THROW(FleetSupervisor(engine, bad), std::invalid_argument);
  SupervisorConfig bad2;
  bad2.backoff_max_epochs = 1;  // below backoff_initial_epochs
  EXPECT_THROW(FleetSupervisor(engine, bad2), std::invalid_argument);
}

TEST(FleetSupervisor, StateNamesAreStable) {
  EXPECT_STREQ(node_health_state_name(NodeHealthState::kHealthy), "healthy");
  EXPECT_STREQ(node_health_state_name(NodeHealthState::kSuspect), "suspect");
  EXPECT_STREQ(node_health_state_name(NodeHealthState::kQuarantined),
               "quarantined");
  EXPECT_STREQ(node_health_state_name(NodeHealthState::kProbation),
               "probation");
  EXPECT_STREQ(node_health_state_name(NodeHealthState::kFailed), "failed");
}

}  // namespace
}  // namespace aqua::fleet
