// Fault-injection campaigns: counter-based schedule reproducibility, the
// injector's apply/ramp/expire mechanics, and the headline end-to-end
// guarantees — every hard fault detected and quarantined within bounded
// epochs, transients recovered through backoff re-commission, zero quarantine
// flaps, graceful-degradation localization with part of the fleet dead, and
// bit-identical campaign outcomes at any thread count.
#include <cmath>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "core/monitor.hpp"
#include "core/rig.hpp"
#include "fault/campaign.hpp"
#include "fleet/fleet.hpp"
#include "fleet/supervisor.hpp"
#include "obs/metrics.hpp"
#include "util/thread_pool.hpp"

namespace aqua::fault {
namespace {

using util::Seconds;

struct District {
  hydro::WaterNetwork net;
  std::vector<fleet::SensorPlacement> placements;
  std::vector<hydro::WaterNetwork::PipeId> pipes;
  hydro::WaterNetwork::NodeId n2 = 0;
};

// The 10-pipe looped district of tests/fleet/test_fleet_determinism.cpp.
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
  for (hydro::WaterNetwork::PipeId p = 0; p < d.net.pipe_count(); ++p) {
    d.placements.push_back(fleet::SensorPlacement{p, 0.0});
    d.pipes.push_back(p);
  }
  d.n2 = n2;
  return d;
}

fleet::FleetConfig make_config() {
  fleet::FleetConfig cfg;
  cfg.sensor.isif = cta::coarse_isif_config();
  cfg.sensor.cta.output_cutoff = util::hertz(2.0);
  cfg.root_seed = 20260805;
  cfg.epoch = Seconds{0.25};
  return cfg;
}

fleet::SupervisorConfig make_supervisor_config() {
  fleet::SupervisorConfig cfg;
  cfg.health.stuck_count = 6;  // catch dead channels inside the event windows
  return cfg;
}

// The scripted campaign the end-to-end tests drive: one event per layer.
//   sensor 3 membrane   (hard, permanent)   t=1.0
//   sensor 1 moisture   (hard, permanent)   t=1.5
//   sensor 4 watchdog   (hard, transient)   t=2.0
//   sensor 2 stuck bits (hard, transient)   t=1.5, 6 s window
//   sensor 0 brownout   (soft, transient)   t=2.5, 5 s window
FaultCampaign make_scripted_campaign() {
  FaultCampaign campaign{7};
  campaign
      .add({3, FaultKind::kMembraneOverpressure, Seconds{1.0}, Seconds{1.0},
            0.8})
      .add({1, FaultKind::kMoistureIngress, Seconds{1.5}, Seconds{1.0}, 0.9})
      .add({4, FaultKind::kWatchdogOverrun, Seconds{2.0}, Seconds{1.0}, 0.7})
      .add({2, FaultKind::kAdcStuckBits, Seconds{1.5}, Seconds{6.0}, 0.9})
      .add({0, FaultKind::kDacBrownout, Seconds{2.5}, Seconds{5.0}, 1.0});
  return campaign;
}

CampaignSummary run_scripted(unsigned threads, Seconds duration,
                             std::vector<fleet::NodeHealthState>* states_out =
                                 nullptr) {
  District d = make_district();
  fleet::FleetEngine engine(d.net, d.placements, make_config());
  engine.set_shared_fit(cta::KingFit{0.9, 1.1, 0.5});
  std::unique_ptr<util::ThreadPool> pool;
  if (threads > 0) pool = std::make_unique<util::ThreadPool>(threads);
  engine.commission(Seconds{0.2}, pool.get());
  fleet::FleetSupervisor supervisor(engine, make_supervisor_config());
  CampaignSummary summary = run_campaign(
      engine, supervisor, make_scripted_campaign(), duration, pool.get());
  if (states_out != nullptr)
    for (std::size_t i = 0; i < engine.size(); ++i)
      states_out->push_back(supervisor.state(i));
  return summary;
}

// --- schedule determinism ---------------------------------------------------

TEST(FaultCampaign, RandomScheduleIsReproducible) {
  const FaultCampaign a = FaultCampaign::random(42, 8, 10, Seconds{0.5},
                                                Seconds{6.0});
  const FaultCampaign b = FaultCampaign::random(42, 8, 10, Seconds{0.5},
                                                Seconds{6.0});
  ASSERT_EQ(a.events().size(), b.events().size());
  for (std::size_t k = 0; k < a.events().size(); ++k) {
    EXPECT_EQ(a.events()[k].kind, b.events()[k].kind);
    EXPECT_EQ(a.events()[k].sensor, b.events()[k].sensor);
    EXPECT_EQ(a.events()[k].start.value(), b.events()[k].start.value());
    EXPECT_EQ(a.events()[k].duration.value(), b.events()[k].duration.value());
    EXPECT_EQ(a.events()[k].severity, b.events()[k].severity);
  }
}

TEST(FaultCampaign, EventKDependsOnlyOnSeedAndK) {
  // Counter-based streams: growing the campaign must not reshuffle the
  // existing events — event k is a pure function of (seed, k).
  const FaultCampaign small = FaultCampaign::random(9, 3, 10, Seconds{0.5},
                                                    Seconds{6.0});
  const FaultCampaign large = FaultCampaign::random(9, 12, 10, Seconds{0.5},
                                                    Seconds{6.0});
  for (std::size_t k = 0; k < small.events().size(); ++k) {
    EXPECT_EQ(small.events()[k].kind, large.events()[k].kind);
    EXPECT_EQ(small.events()[k].start.value(),
              large.events()[k].start.value());
    EXPECT_EQ(small.events()[k].severity, large.events()[k].severity);
  }
}

TEST(FaultCampaign, DifferentSeedsDiffer) {
  const FaultCampaign a = FaultCampaign::random(1, 8, 10, Seconds{0.5},
                                                Seconds{6.0});
  const FaultCampaign b = FaultCampaign::random(2, 8, 10, Seconds{0.5},
                                                Seconds{6.0});
  bool any_difference = false;
  for (std::size_t k = 0; k < a.events().size(); ++k)
    if (a.events()[k].start.value() != b.events()[k].start.value())
      any_difference = true;
  EXPECT_TRUE(any_difference);
}

TEST(FaultCampaign, Validation) {
  FaultCampaign campaign;
  EXPECT_THROW(
      campaign.add({0, FaultKind::kBubbleAdhesion, Seconds{1.0}, Seconds{1.0},
                    1.5}),
      std::invalid_argument);
  EXPECT_THROW(FaultCampaign::random(1, 4, 0, Seconds{0.0}, Seconds{1.0}),
               std::invalid_argument);
  EXPECT_THROW(FaultCampaign::random(1, 4, 10, Seconds{2.0}, Seconds{1.0}),
               std::invalid_argument);
}

TEST(FaultKinds, TaxonomyIsConsistent) {
  for (int k = 0; k < kFaultKindCount; ++k) {
    const FaultKind kind = static_cast<FaultKind>(k);
    EXPECT_NE(fault_kind_label(kind), nullptr);
    // Permanent physical damage is exactly the non-transient set.
    const bool permanent = kind == FaultKind::kMembraneOverpressure ||
                           kind == FaultKind::kMoistureIngress;
    EXPECT_EQ(fault_kind_is_transient(kind), !permanent);
    if (permanent) {
      EXPECT_TRUE(fault_kind_is_hard(kind));
    }
  }
}

// --- injector mechanics -----------------------------------------------------

TEST(FaultInjector, SurfaceEventRampsAndDetaches) {
  District d = make_district();
  fleet::FleetEngine engine(d.net, d.placements, make_config());
  FaultCampaign campaign;
  campaign.add({2, FaultKind::kBubbleAdhesion, Seconds{1.0}, Seconds{2.0},
                1.0});
  FaultInjector injector(engine, campaign);

  injector.update(Seconds{0.5});
  EXPECT_FALSE(injector.started(0));
  auto& die = engine.node(2).anemometer().die();
  EXPECT_EQ(die.fouling_a().bubble_coverage(), 0.0);

  injector.update(Seconds{1.5});  // mid-ramp (half the 1 s ramp window)
  EXPECT_TRUE(injector.started(0));
  EXPECT_EQ(injector.injections(), 1);
  const double mid = die.fouling_a().bubble_coverage();
  EXPECT_GT(mid, 0.0);

  injector.update(Seconds{2.5});  // fully developed
  EXPECT_GT(die.fouling_a().bubble_coverage(), mid);

  injector.update(Seconds{3.5});  // past start+duration: the bubble detaches
  EXPECT_TRUE(injector.expired(0));
  EXPECT_EQ(die.fouling_a().bubble_coverage(), 0.0);
  EXPECT_EQ(die.fouling_b().bubble_coverage(), 0.0);
}

TEST(FaultInjector, ChannelEventAppliesAndClears) {
  District d = make_district();
  fleet::FleetEngine engine(d.net, d.placements, make_config());
  FaultCampaign campaign;
  campaign.add({1, FaultKind::kAdcStuckBits, Seconds{1.0}, Seconds{2.0}, 1.0});
  FaultInjector injector(engine, campaign);

  injector.update(Seconds{1.0});
  auto& channel = engine.node(1).anemometer().platform().channel(0);
  EXPECT_NE(channel.injected_fault().stuck_high, 0u);

  injector.update(Seconds{3.0});
  EXPECT_EQ(channel.injected_fault().stuck_high, 0u);
}

TEST(FaultInjector, InjectionIsRecordedInFlightRecorder) {
  District d = make_district();
  fleet::FleetEngine engine(d.net, d.placements, make_config());
  FaultCampaign campaign;
  campaign.add({5, FaultKind::kMembraneOverpressure, Seconds{0.5},
                Seconds{1.0}, 1.0});
  FaultInjector injector(engine, campaign);
  injector.update(Seconds{0.5});

  bool recorded = false;
  for (const auto& e : engine.node(5).anemometer().flight().events())
    if (e.kind == obs::FlightRecordKind::kFaultInjected) recorded = true;
  EXPECT_TRUE(recorded);
  EXPECT_GE(injector.injection_time_s(0), 0.0);
}

TEST(FaultInjector, RejectsOutOfRangeSensor) {
  District d = make_district();
  fleet::FleetEngine engine(d.net, d.placements, make_config());
  FaultCampaign campaign;
  campaign.add({99, FaultKind::kBubbleAdhesion, Seconds{1.0}, Seconds{1.0},
                1.0});
  EXPECT_THROW(FaultInjector(engine, campaign), std::invalid_argument);
}

// --- horizon length ---------------------------------------------------------

// 0.14 s of 0.02 s epochs is 7 epochs, though 0.14 / 0.02 evaluates to
// 7.000000000000001 in doubles: FleetEngine::run and a CampaignRunner over
// that horizon must both stop after 7 epochs instead of rounding up to 8.
TEST(CampaignRunner, HorizonOfWholeEpochsIsNotRoundedUp) {
  District d = make_district();
  fleet::FleetConfig cfg = make_config();
  cfg.epoch = Seconds{0.02};
  fleet::FleetEngine engine(d.net, d.placements, cfg);
  engine.set_shared_fit(cta::KingFit{0.9, 1.1, 0.5});
  engine.run(Seconds{0.14});
  EXPECT_EQ(engine.epochs(), 7);

  fleet::FleetSupervisor supervisor(engine, make_supervisor_config());
  CampaignRunner runner{engine, supervisor, FaultCampaign{7}, Seconds{0.14}};
  for (int e = 0; e < 7; ++e) {
    ASSERT_FALSE(runner.done()) << "after " << e << " steps";
    runner.step();
  }
  EXPECT_TRUE(runner.done());
}

// --- end-to-end campaign guarantees ----------------------------------------

TEST(FaultCampaignEndToEnd, HardFaultsDetectedTransientsRecoveredNoFlaps) {
  std::vector<fleet::NodeHealthState> states;
  const CampaignSummary s = run_scripted(0, Seconds{20.0}, &states);

  EXPECT_EQ(s.injected, 5);
  EXPECT_EQ(s.hard_injected, 4);

  // Gate 1: every hard fault detected, within bounded epochs of injection.
  EXPECT_EQ(s.hard_detected, s.hard_injected);
  for (const FaultOutcome& o : s.outcomes) {
    if (!o.hard) continue;
    ASSERT_GE(o.quarantined_t_s, 0.0) << fault_kind_label(o.event.kind);
    EXPECT_LE(o.detection_epochs, 24) << fault_kind_label(o.event.kind);
  }

  // Gate 2: the recoverable hard faults come back through backoff
  // re-commission once their cause clears; the permanent ones never do.
  EXPECT_EQ(states[4], fleet::NodeHealthState::kHealthy);  // watchdog
  EXPECT_EQ(states[2], fleet::NodeHealthState::kHealthy);  // stuck bits
  EXPECT_EQ(states[3], fleet::NodeHealthState::kFailed);   // membrane
  EXPECT_EQ(states[1], fleet::NodeHealthState::kFailed);   // moisture
  EXPECT_EQ(s.failed_permanently, 2);
  for (const FaultOutcome& o : s.outcomes) {
    if (o.event.kind == FaultKind::kWatchdogOverrun ||
        o.event.kind == FaultKind::kAdcStuckBits) {
      EXPECT_GE(o.recovered_t_s, 0.0) << fault_kind_label(o.event.kind);
    }
  }

  // Gate 3: zero quarantine flaps — no sensor without an injected fault was
  // ever quarantined.
  EXPECT_EQ(s.quarantine_flaps, 0);
}

TEST(FaultCampaignEndToEnd, SerialAndParallelCampaignsAreBitIdentical) {
  std::vector<fleet::NodeHealthState> serial_states;
  std::vector<fleet::NodeHealthState> parallel_states;
  const CampaignSummary serial =
      run_scripted(0, Seconds{12.0}, &serial_states);
  const CampaignSummary parallel =
      run_scripted(8, Seconds{12.0}, &parallel_states);

  EXPECT_EQ(serial.trace_checksum, parallel.trace_checksum);
  EXPECT_EQ(serial.hard_detected, parallel.hard_detected);
  EXPECT_EQ(serial.transient_detected, parallel.transient_detected);
  EXPECT_EQ(serial.transient_recovered, parallel.transient_recovered);
  EXPECT_EQ(serial.quarantine_flaps, parallel.quarantine_flaps);
  EXPECT_EQ(serial.failed_permanently, parallel.failed_permanently);
  ASSERT_EQ(serial.outcomes.size(), parallel.outcomes.size());
  for (std::size_t k = 0; k < serial.outcomes.size(); ++k) {
    EXPECT_EQ(serial.outcomes[k].injected_t_s,
              parallel.outcomes[k].injected_t_s);
    EXPECT_EQ(serial.outcomes[k].quarantined_t_s,
              parallel.outcomes[k].quarantined_t_s);
    EXPECT_EQ(serial.outcomes[k].detection_epochs,
              parallel.outcomes[k].detection_epochs);
    EXPECT_EQ(serial.outcomes[k].recovered_t_s,
              parallel.outcomes[k].recovered_t_s);
  }
  EXPECT_EQ(serial_states, parallel_states);
}

// Every epoch advances every sensor exactly once, whatever its health: a
// quarantined sensor keeps integrating, and a due re-commission rides the
// same claimed item as its advance. So over a pooled, supervised campaign
// the `fleet.sensor_steps` delta is sensors × epochs, and every trace holds
// one sample per epoch.
TEST(FaultCampaignEndToEnd, PooledCampaignStepsEverySensorEveryEpoch) {
  const auto sensor_steps = [] {
    for (const obs::CounterSnapshot& c :
         obs::Registry::instance().snapshot().counters)
      if (c.name == "fleet.sensor_steps") return c.value;
    return std::uint64_t{0};
  };
  District d = make_district();
  fleet::FleetEngine engine(d.net, d.placements, make_config());
  engine.set_shared_fit(cta::KingFit{0.9, 1.1, 0.5});
  util::ThreadPool pool{4};
  engine.commission(Seconds{0.2}, &pool);
  fleet::FleetSupervisor supervisor(engine, make_supervisor_config());

  const std::uint64_t before = sensor_steps();
  const CampaignSummary s = run_campaign(
      engine, supervisor, make_scripted_campaign(), Seconds{12.0}, &pool);
  const std::uint64_t steps = sensor_steps() - before;

  ASSERT_GT(supervisor.stats().quarantines, 0);
  ASSERT_GT(s.epochs, 0);
  EXPECT_EQ(steps, engine.size() * static_cast<std::uint64_t>(s.epochs));
  for (std::size_t i = 0; i < engine.size(); ++i)
    EXPECT_EQ(engine.node(i).trace().size(),
              static_cast<std::size_t>(s.epochs))
        << "sensor " << i;
}

// 64-bit FNV-1a over a string's bytes.
std::uint64_t fnv1a(std::string_view text) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

// The scripted campaign's committed bits, serially and on 8 threads. They
// were recorded when every re-commission still ran serially after its epoch;
// the campaign runs re-commissions that recover (watchdog, stuck bits) and
// ones that exhaust their attempts (membrane, moisture), so moving any of
// them into the epoch fan-out must reproduce the trace and the summary
// byte for byte.
TEST(FaultCampaignEndToEnd, ScriptedCampaignReproducesTheCommittedBits) {
  for (const unsigned threads : {0u, 8u}) {
    const CampaignSummary s = run_scripted(threads, Seconds{20.0});
    EXPECT_EQ(s.trace_checksum, 0x3c42cff2ad82d526ull) << threads;
    EXPECT_EQ(fnv1a(s.to_json()), 0x9fa80496c29cae19ull) << threads;
  }
}

TEST(FaultCampaignEndToEnd, MaskedLocalizationSurvivesQuarantines) {
  District d = make_district();
  fleet::FleetEngine engine(d.net, d.placements, make_config());
  engine.set_shared_fit(cta::KingFit{0.9, 1.1, 0.5});

  cta::LeakLocalizer localizer(d.net, d.pipes, util::metres_per_second(0.02));
  localizer.set_probe_emitter(2e-4);  // heavily loaded district
  localizer.calibrate();

  engine.commission(Seconds{0.2});
  fleet::FleetSupervisor supervisor(engine, make_supervisor_config());

  // Kill two sensors for good, run the campaign to quiescence.
  FaultCampaign campaign{11};
  campaign
      .add({3, FaultKind::kMembraneOverpressure, Seconds{0.5}, Seconds{1.0},
            0.9})
      .add({6, FaultKind::kMoistureIngress, Seconds{0.5}, Seconds{1.0}, 0.9});
  (void)run_campaign(engine, supervisor, campaign, Seconds{14.0});
  ASSERT_EQ(supervisor.count_in(fleet::NodeHealthState::kFailed), 2u);

  // Spring a leak at a junction the surviving sensors still observe.
  d.net.set_leak(d.n2, 1e-3);
  for (int e = 0; e < 16; ++e) supervisor.step();

  const fleet::MaskedEstimates masked = engine.latest_estimates_masked();
  EXPECT_EQ(masked.valid_count(), engine.size() - 2);
  EXPECT_EQ(masked.valid[3], 0);
  EXPECT_EQ(masked.valid[6], 0);
  for (const double v : masked.values) EXPECT_TRUE(std::isfinite(v));
  EXPECT_EQ(masked.values[3], 0.0);  // pinned, no stale replay

  EXPECT_TRUE(localizer.leak_detected(masked.values, masked.valid));
  const auto hypotheses = localizer.locate(masked.values, masked.valid);
  ASSERT_FALSE(hypotheses.empty());
  for (const cta::LeakHypothesis& h : hypotheses) {
    EXPECT_TRUE(std::isfinite(h.estimated_flow_m3s));
    EXPECT_TRUE(std::isfinite(h.residual_norm));
  }
  // Bounded localization error: the true junction ranks in the top 3 even
  // with two sensors dark.
  std::size_t rank = 0;
  for (std::size_t c = 0; c < hypotheses.size(); ++c)
    if (hypotheses[c].node == d.n2) rank = c + 1;
  EXPECT_GE(rank, 1u);
  EXPECT_LE(rank, 3u);
}

TEST(FaultCampaignEndToEnd, ZeroValidSensorsDegradeToSilence) {
  District d = make_district();
  fleet::FleetEngine engine(d.net, d.placements, make_config());
  engine.set_shared_fit(cta::KingFit{0.9, 1.1, 0.5});
  cta::LeakLocalizer localizer(d.net, d.pipes, util::metres_per_second(0.02));
  localizer.set_probe_emitter(2e-4);
  localizer.calibrate();
  engine.commission(Seconds{0.2});
  engine.run(Seconds{0.5});
  for (std::size_t i = 0; i < engine.size(); ++i)
    engine.set_estimate_valid(i, false);

  const fleet::MaskedEstimates masked = engine.latest_estimates_masked();
  EXPECT_EQ(masked.valid_count(), 0u);
  EXPECT_FALSE(localizer.leak_detected(masked.values, masked.valid));
  EXPECT_TRUE(localizer.locate(masked.values, masked.valid).empty());
}

}  // namespace
}  // namespace aqua::fault
