// campaign.hpp — scriptable, seeded fault-injection campaigns over a sensor
// fleet. A FaultCampaign is a schedule of FaultEvents; the FaultInjector
// applies them at epoch boundaries through the *physical* injection ports
// (die surface, membrane, package, ISIF channel, DAC rail, firmware), and
// run_campaign drives injector + engine + supervisor to a machine-readable
// CampaignSummary for the CI gates.
//
// Determinism contract (DESIGN.md §11): random schedules draw event k's
// parameters exclusively from util::Rng::stream(seed, k) — counter-based, so
// the schedule is a pure function of (seed, k). The injector acts serially
// between epochs; the supervisor's due re-commissions run inside the epoch's
// fan-out, each right after its own sensor's advance, and its bookkeeping
// runs serially after the epoch. A campaign is therefore bit-reproducible at
// any thread count, and a campaign that is compiled in but never constructed
// executes zero extra floating-point operations in the signal chain (all
// injection ports are branch-guarded).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "fleet/fleet.hpp"
#include "fleet/supervisor.hpp"
#include "util/thread_pool.hpp"
#include "util/units.hpp"

namespace aqua::fault {

class FaultCampaign {
 public:
  explicit FaultCampaign(std::uint64_t seed = 0) : seed_(seed) {}

  FaultCampaign& add(const FaultEvent& event);

  /// Seeded random schedule: `count` events spread over `sensor_count`
  /// sensors, starting in [earliest, horizon), each active for a duration in
  /// [min_duration, max_duration) with severity in [0.5, 1).
  [[nodiscard]] static FaultCampaign random(
      std::uint64_t seed, std::size_t count, std::size_t sensor_count,
      util::Seconds earliest, util::Seconds horizon,
      util::Seconds min_duration = util::Seconds{2.0},
      util::Seconds max_duration = util::Seconds{8.0});

  [[nodiscard]] const std::vector<FaultEvent>& events() const {
    return events_;
  }
  [[nodiscard]] std::uint64_t seed() const { return seed_; }

 private:
  std::uint64_t seed_;
  std::vector<FaultEvent> events_;
};

/// Applies a campaign's events to a live fleet. Call update(engine.now())
/// once per epoch, before FleetEngine::step_epoch, on the main thread.
class FaultInjector {
 public:
  FaultInjector(fleet::FleetEngine& engine, const FaultCampaign& campaign);

  /// Starts, ramps and expires events for simulation time `now`. Each start
  /// emits a flight-recorder entry, a trace instant and bumps the
  /// fault.injected counter.
  void update(util::Seconds now);

  [[nodiscard]] long long injections() const { return injections_; }
  [[nodiscard]] bool started(std::size_t k) const {
    return started_[k] != 0;
  }
  [[nodiscard]] bool expired(std::size_t k) const {
    return expired_[k] != 0;
  }
  /// Simulation time at which event k was actually applied (-1 if pending).
  [[nodiscard]] double injection_time_s(std::size_t k) const {
    return injection_t_s_[k];
  }

  /// Checkpoint support: the schedule cursors only (started/expired flags,
  /// injection times, counter). The injected *effects* live in the sensor
  /// state the engine checkpoint already carries; restore targets an injector
  /// freshly constructed from the identical campaign.
  void save_state(state::Writer& w) const;
  void load_state(state::Reader& r);

 private:
  void apply_start(std::size_t k, util::Seconds now);
  void apply_expiry(std::size_t k);
  void refresh_surface(std::size_t sensor, util::Seconds now);
  void refresh_channel(std::size_t sensor);

  fleet::FleetEngine& engine_;
  std::vector<FaultEvent> events_;
  std::vector<std::uint8_t> started_;
  std::vector<std::uint8_t> expired_;
  std::vector<double> injection_t_s_;
  long long injections_ = 0;
};

/// Per-event outcome as observed by run_campaign.
struct FaultOutcome {
  FaultEvent event;
  bool hard = false;
  bool injected = false;
  double injected_t_s = -1.0;
  /// First quarantine of the event's sensor at/after injection (-1 = never).
  double quarantined_t_s = -1.0;
  long long detection_epochs = -1;  ///< injection → quarantine, in epochs
  /// First recovery of the sensor after that quarantine (-1 = none).
  double recovered_t_s = -1.0;
};

struct CampaignSummary {
  std::vector<FaultOutcome> outcomes;
  long long epochs = 0;
  double sim_time_s = 0.0;
  std::size_t sensors = 0;
  long long injected = 0;
  long long hard_injected = 0;
  long long hard_detected = 0;  ///< hard events whose sensor was quarantined
  long long transient_injected = 0;
  long long transient_detected = 0;
  long long transient_recovered = 0;  ///< detected transients back in service
  long long failed_permanently = 0;   ///< sensors in kFailed at campaign end
  /// Quarantine entries beyond one per injected event per sensor — spurious
  /// oscillation. The CI gate requires zero.
  long long quarantine_flaps = 0;
  std::uint64_t trace_checksum = 0;

  [[nodiscard]] std::string to_json() const;
};

/// Bitwise XOR checksum over every node's full trace — the one fleet trace
/// checksum every bench, test and the benchmark compare. Equal checksums
/// across thread counts are the determinism proof, under injection too.
[[nodiscard]] std::uint64_t fleet_trace_checksum(
    const fleet::FleetEngine& engine);

/// The epoch-resolved campaign loop behind run_campaign, broken out so it can
/// checkpoint between epochs and resume mid-campaign (DESIGN.md §14):
///
///   CampaignRunner runner{engine, supervisor, campaign, duration};
///   while (!runner.done()) {
///     runner.step(pool);
///     if (due) manager.write(runner.epoch(), runner.checkpoint());
///   }
///   CampaignSummary summary = runner.finish();
///
/// step() performs exactly one iteration of the historical run_campaign loop
/// (inject → FleetSupervisor::step → outcome scan), so a runner that
/// checkpoints after epoch k and a fresh runner restored from that image
/// produce bit-identical summaries — the kill-and-resume contract.
class CampaignRunner {
 public:
  /// The engine should already be commissioned and calibrated; `supervisor`
  /// must be bound to `engine`.
  CampaignRunner(fleet::FleetEngine& engine,
                 fleet::FleetSupervisor& supervisor,
                 const FaultCampaign& campaign, util::Seconds duration);

  CampaignRunner(const CampaignRunner&) = delete;
  CampaignRunner& operator=(const CampaignRunner&) = delete;

  /// Advances one epoch (throws std::logic_error once done()).
  void step(util::ThreadPool* pool = nullptr);
  [[nodiscard]] bool done() const { return epoch_ >= total_epochs_; }
  /// Epochs completed so far.
  [[nodiscard]] long long epoch() const { return epoch_; }

  /// Aggregates the summary tail (detection/recovery tallies, flap scan,
  /// trace checksum). Call once, after done().
  [[nodiscard]] CampaignSummary finish() const;

  // --- crash-consistent checkpoint/restore ---------------------------------
  /// One image holding the engine's sections plus the supervisor (SUPV),
  /// injector cursors (INJC) and this runner's partial outcomes (CAMP).
  /// Must run between step() calls (the quiescent point).
  [[nodiscard]] std::vector<std::uint8_t> checkpoint() const;
  /// Restores engine + supervisor + injector + runner from `image` into this
  /// freshly constructed trio (identical configs/campaign/duration). Throws
  /// state::Error on mismatch or corruption.
  void restore(std::span<const std::uint8_t> image);

 private:
  fleet::FleetEngine& engine_;
  fleet::FleetSupervisor& supervisor_;
  FaultInjector injector_;
  CampaignSummary summary_;  ///< outcomes filled in as epochs run
  std::vector<long long> injection_epoch_;
  std::vector<int> prev_quarantines_;
  std::vector<int> prev_recoveries_;
  long long epoch_ = 0;
  long long total_epochs_ = 0;
};

/// Runs `duration` of co-simulation with the campaign injected and the
/// supervisor stepping every epoch (a CampaignRunner driven to completion).
/// The engine should already be commissioned and calibrated; `supervisor`
/// must be bound to `engine`.
CampaignSummary run_campaign(fleet::FleetEngine& engine,
                             fleet::FleetSupervisor& supervisor,
                             const FaultCampaign& campaign,
                             util::Seconds duration,
                             util::ThreadPool* pool = nullptr);

}  // namespace aqua::fault
