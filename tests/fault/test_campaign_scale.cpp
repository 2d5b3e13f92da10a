// Campaign-at-scale determinism: a seeded random fault campaign over a
// 1k-sensor fleet must produce a bit-identical CampaignSummary — trace
// checksum, every outcome timestamp, every detection latency — whether the
// epochs run serially or one sensor per index on pool(8). This is the
// end-to-end proof that injection, supervision and the parallel epoch loop
// compose without breaking the determinism contract.
#include <cstddef>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/rig.hpp"
#include "fault/campaign.hpp"
#include "fleet/fleet.hpp"
#include "fleet/supervisor.hpp"
#include "util/thread_pool.hpp"

#include "../hydro/replicated_district.hpp"

namespace aqua::fault {
namespace {

using util::Seconds;

struct District {
  hydro::WaterNetwork net;
  std::vector<fleet::SensorPlacement> placements;
};

// Replicas of the bench district with one sensor per pipe (32 replicas =
// 1024 sensors), hydraulically independent so 1k-sensor epochs stay
// affordable in tier 1.
District make_district(std::size_t replicas) {
  District d{hydro::replicated_district(replicas), {}};
  for (hydro::WaterNetwork::PipeId p = 0; p < d.net.pipe_count(); ++p)
    d.placements.push_back(fleet::SensorPlacement{p, 0.0});
  return d;
}

CampaignSummary run_scaled_campaign(unsigned threads) {
  constexpr std::size_t kReplicas = 32;  // 1024 sensors
  District d = make_district(kReplicas);
  fleet::FleetConfig cfg;
  cfg.sensor.isif = cta::coarse_isif_config();
  cfg.sensor.cta.output_cutoff = util::hertz(2.0);
  cfg.root_seed = 424242;
  cfg.epoch = Seconds{0.02};
  fleet::FleetEngine engine(d.net, d.placements, cfg);
  engine.set_shared_fit(cta::KingFit{0.9, 1.1, 0.5});
  std::unique_ptr<util::ThreadPool> pool;
  if (threads > 0) pool = std::make_unique<util::ThreadPool>(threads);

  fleet::FleetSupervisor supervisor(engine, fleet::SupervisorConfig{});
  // Counter-based schedule: 24 events over 1024 sensors, pure function of the
  // seed — identical on both runs by construction, so any divergence below
  // comes from the engine/supervisor loop, not the schedule.
  const FaultCampaign campaign = FaultCampaign::random(
      2026, 24, engine.size(), Seconds{0.02}, Seconds{0.10});
  return run_campaign(engine, supervisor, campaign, Seconds{0.12}, pool.get());
}

TEST(FaultCampaignScale, ThousandSensorSummaryBitIdenticalSerialVsPool8) {
  const CampaignSummary serial = run_scaled_campaign(0);
  const CampaignSummary pooled = run_scaled_campaign(8);

  EXPECT_EQ(serial.sensors, 1024u);
  EXPECT_EQ(serial.epochs, pooled.epochs);
  EXPECT_EQ(serial.sim_time_s, pooled.sim_time_s);
  EXPECT_EQ(serial.injected, pooled.injected);
  EXPECT_GT(serial.injected, 0);
  EXPECT_EQ(serial.hard_injected, pooled.hard_injected);
  EXPECT_EQ(serial.hard_detected, pooled.hard_detected);
  EXPECT_EQ(serial.transient_injected, pooled.transient_injected);
  EXPECT_EQ(serial.transient_detected, pooled.transient_detected);
  EXPECT_EQ(serial.transient_recovered, pooled.transient_recovered);
  EXPECT_EQ(serial.failed_permanently, pooled.failed_permanently);
  EXPECT_EQ(serial.quarantine_flaps, pooled.quarantine_flaps);
  EXPECT_EQ(serial.trace_checksum, pooled.trace_checksum);

  ASSERT_EQ(serial.outcomes.size(), pooled.outcomes.size());
  for (std::size_t k = 0; k < serial.outcomes.size(); ++k) {
    const FaultOutcome& a = serial.outcomes[k];
    const FaultOutcome& b = pooled.outcomes[k];
    EXPECT_EQ(a.injected, b.injected) << "event " << k;
    EXPECT_EQ(a.injected_t_s, b.injected_t_s) << "event " << k;
    EXPECT_EQ(a.quarantined_t_s, b.quarantined_t_s) << "event " << k;
    EXPECT_EQ(a.detection_epochs, b.detection_epochs) << "event " << k;
    EXPECT_EQ(a.recovered_t_s, b.recovered_t_s) << "event " << k;
  }
}

}  // namespace
}  // namespace aqua::fault
