// fleet.hpp — the fleet co-simulation engine: N independent CTA sensors
// attached to pipes of a hydro::WaterNetwork, co-simulated against the
// network's diurnal demand pattern (paper §6: "diffusive monitoring in water
// distribution networks").
//
// Timing model: time advances in fixed epochs. At each epoch boundary the
// engine (serially) scales the junction demands by the diurnal factor and
// re-solves the steady-state network; every sensor then integrates its
// ΣΔ/CIC/PI loop across the epoch under its pipe's frozen hydraulic state —
// on the caller's thread, or across the workers of a util::ThreadPool.
//
// Parallel execution model (DESIGN.md §12): each epoch the fleet is cut into
// contiguous chunks of up to 8 sensors, and each worker claims the next
// unclaimed chunk from one atomic cursor until none is left. A worker
// that wakes late or draws slow sensors simply claims fewer chunks, so the
// load balances from the first epoch, with no cost model to warm up. Inside a
// TeamSession the claimers are one persistent task parked per worker,
// released once per epoch through an EpochBarrier (zero per-epoch enqueues);
// with a plain pool they are one task per worker per epoch; serially the
// caller claims every chunk itself. The per-epoch hot state (pipe snapshots
// in, sample fields out) lives in structure-of-arrays form so an epoch
// streams memory instead of chasing SensorNode pointers, and so readers
// (supervisor polls, leak estimates) can scan the fleet without touching the
// nodes.
//
// Determinism contract (the load-bearing property): each SensorNode owns all
// of its mutable state and draws from its private counter-based RNG stream
// (util::Rng::stream(root_seed, sensor_index)), and epoch snapshots are
// computed serially before the fan-out. Sensor tasks therefore commute, and
// the same root seed produces bit-identical per-sensor traces for ANY thread
// count, chunk size and claim order. Which worker claims which chunk depends
// on wall-clock timing and is explicitly outside the contract; the simulation
// output must not (and does not) depend on it. tests/fleet/ enforce both.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "fleet/report.hpp"
#include "fleet/sensor_node.hpp"
#include "hydro/network.hpp"
#include "sim/schedule.hpp"
#include "state/checkpoint.hpp"
#include "util/thread_pool.hpp"
#include "util/units.hpp"
#include "util/worker_team.hpp"

namespace aqua::fleet {

struct FleetConfig {
  /// Template for every sensor (placement and RNG stream are per-node).
  SensorNodeConfig sensor{};
  std::uint64_t root_seed = 42;
  /// Network solve cadence; sensors integrate one epoch between solves.
  util::Seconds epoch{0.25};
  /// Demand multiplier vs simulation time (diurnal pattern; constant 1 by
  /// default). Applied to the base demands captured at construction.
  sim::Schedule demand_factor{1.0};
  util::Kelvin water_temperature = util::celsius(15.0);
  /// Absolute pressure floor the node pressure heads ride on.
  util::Pascals atmospheric = util::bar(1.0);
};

/// Residential 24-hour demand pattern — night valley (0.3×), morning peak
/// (1.6×), midday plateau, evening peak (1.3×) — compressed to `day`.
[[nodiscard]] sim::Schedule diurnal_demand_pattern(util::Seconds day);

/// Per-sensor estimates paired with a validity mask. `values[i]` is only
/// meaningful where `valid[i]` is nonzero; for quarantined / faulted / never-
/// sampled sensors the value is pinned to 0.0 rather than silently replaying
/// the last pre-fault trace sample. Consumers that can degrade gracefully
/// (LeakLocalizer's masked overloads) should use the mask; consumers that
/// cannot must treat any invalid entry as missing data.
struct MaskedEstimates {
  std::vector<double> values;
  std::vector<std::uint8_t> valid;

  [[nodiscard]] std::size_t valid_count() const;
};

class FleetEngine {
 public:
  /// Captures the network's current demands as the diurnal base and solves
  /// once. Throws std::runtime_error if that initial solve fails.
  FleetEngine(hydro::WaterNetwork& network,
              std::span<const SensorPlacement> placements,
              const FleetConfig& config);

  /// Ends any live worker team (begin_team misuse backstop; the pool must
  /// still be alive — see begin_team).
  ~FleetEngine();

  /// Runs the ISIF channel self-test on every sensor, then settles every
  /// sensor at zero flow (parallel across `pool` if given). Self-test results
  /// surface through SensorNode::last_self_test() and the FleetReport; the
  /// test leaves the channel bit-identical to its pre-test state, so the
  /// determinism checksum is unaffected.
  void commission(util::Seconds settle = util::Seconds{1.0},
                  util::ThreadPool* pool = nullptr);

  /// Field-service action on one node, the supervisor's re-commission move:
  /// reboot the electronics, run the channel self-test, re-null the direction
  /// channel at zero flow. Serial by design — supervisor actions happen at
  /// epoch boundaries on the caller's thread (determinism contract). Returns
  /// the self-test result.
  isif::ChannelSelfTestResult recommission(std::size_t i, util::Seconds settle);

  /// Per-sensor King's-law sweep (parallel across `pool` if given). Each die
  /// gets its own fit, absorbing its tolerance draws.
  void calibrate(std::span<const double> mean_speeds,
                 util::Seconds dwell = util::Seconds{0.5},
                 util::ThreadPool* pool = nullptr);

  /// Fleet-wide nominal fit instead of per-sensor sweeps (cheap, less exact).
  void set_shared_fit(const cta::KingFit& fit);

  /// Co-simulates `duration` in epochs; serial on the caller's thread when
  /// `pool` is null, else parallel — bit-identical either way. With a pool
  /// and no already-active team this wraps the whole loop in a persistent
  /// worker team, so the steady state runs with zero per-epoch task enqueues.
  void run(util::Seconds duration, util::ThreadPool* pool = nullptr);

  /// Advances exactly one epoch: demand scaling, network solve, serial pipe
  /// snapshots, self-claimed chunked sensor execution, clock tick. run() is a
  /// loop over this. Fault injectors and the fleet supervisor act *between*
  /// step_epoch calls on the caller's thread, which keeps campaigns
  /// bit-reproducible at any thread count. Without an active team, a
  /// non-null pool gets exactly one claiming task per worker this epoch.
  void step_epoch(util::ThreadPool* pool = nullptr);

  // --- persistent worker team (DESIGN.md §12) ------------------------------

  /// Parks one persistent epoch task per pool worker; subsequent step_epoch
  /// calls passing this pool release the team through a barrier instead of
  /// enqueueing anything. The team OWNS every pool worker until end_team() —
  /// do not run other work on the pool meanwhile, and always end the team
  /// (or destroy the engine) before the pool is destroyed. No-op on nullptr;
  /// an existing team on the same pool is kept, on another pool replaced.
  void begin_team(util::ThreadPool* pool);
  void end_team();
  [[nodiscard]] bool team_active() const { return team_ != nullptr; }

  /// RAII team scope — the campaign/supervision loops use this around their
  /// step_epoch sequences:
  ///   FleetEngine::TeamSession session{engine, pool.get()};
  ///   for (...) { inject(); engine.step_epoch(pool.get()); poll(); }
  class TeamSession {
   public:
    TeamSession(FleetEngine& engine, util::ThreadPool* pool)
        : engine_(engine) {
      engine_.begin_team(pool);
    }
    ~TeamSession() { engine_.end_team(); }
    TeamSession(const TeamSession&) = delete;
    TeamSession& operator=(const TeamSession&) = delete;

   private:
    FleetEngine& engine_;
  };

  [[nodiscard]] FleetReport report() const;

  [[nodiscard]] std::size_t size() const { return nodes_.size(); }
  [[nodiscard]] const SensorNode& node(std::size_t i) const {
    return *nodes_[i];
  }
  /// Mutable node access for the fault-injection and supervision layers.
  [[nodiscard]] SensorNode& node(std::size_t i) { return *nodes_[i]; }
  [[nodiscard]] util::Seconds now() const { return t_; }
  [[nodiscard]] hydro::WaterNetwork& network() { return net_; }
  [[nodiscard]] const FleetConfig& config() const { return config_; }
  /// Network solves that failed to converge during run() (previous solution
  /// carried over).
  [[nodiscard]] long long solve_failures() const { return solve_failures_; }
  /// Epochs stepped since construction.
  [[nodiscard]] long long epochs() const { return epoch_index_; }

  /// Latest per-sensor mean-velocity estimates (sensor order) — the input a
  /// cta::LeakLocalizer expects. DEPRECATED for fault-aware consumers: for a
  /// dead or quarantined sensor this replays the last trace sample as if it
  /// were live data. Prefer latest_estimates_masked().
  [[nodiscard]] std::vector<double> latest_estimates() const;

  /// Latest per-sensor estimates with a validity mask. A sensor is invalid
  /// while it has never produced a sample or while the supervision layer has
  /// marked it out of service (set_estimate_valid); invalid values are pinned
  /// to 0.0 so garbage cannot leak into downstream consumers unnoticed.
  [[nodiscard]] MaskedEstimates latest_estimates_masked() const;

  /// Sensor `i`'s latest trace sample, served from the engine's SoA hot state
  /// instead of the node's trace vector — the supervisor's per-epoch poll
  /// reads this so a 10k-sensor scan streams four arrays rather than chasing
  /// 10k node pointers. Field-for-field equal to node(i).latest_sample() for
  /// every sample produced through step_epoch.
  [[nodiscard]] std::optional<TraceSample> latest_sample_view(
      std::size_t i) const;

  /// Marks sensor `i`'s estimate stream (in)valid. The supervisor drives this
  /// as nodes move through quarantine and recovery; all sensors start valid.
  void set_estimate_valid(std::size_t i, bool valid);
  [[nodiscard]] bool estimate_valid(std::size_t i) const {
    return estimate_valid_[i] != 0;
  }

  // --- crash-consistent checkpoint/restore (DESIGN.md §14) -----------------

  /// Serialises the engine's evolving state into `ck` as CRC-framed sections
  /// (META config fingerprint, OBSC deterministic counters, NETW hydraulic
  /// state, FLEN engine scalars + hot SoA, NODS every sensor). Must run at a
  /// quiescent point — between step_epoch calls, no epoch in flight.
  /// Composable: campaign layers append their own sections to the same image.
  void write_checkpoint(state::CheckpointWriter& ck) const;

  /// One self-contained checkpoint image (write_checkpoint + finish).
  [[nodiscard]] std::vector<std::uint8_t> checkpoint() const;

  /// Restores from a validated image into THIS engine, which must have been
  /// constructed with the identical config, placements and network — the
  /// one-time part draws (tolerances, offsets, mismatch) are reproduced by
  /// reconstruction and never enter a checkpoint. Validates the META section
  /// against the live config and throws state::Error on any mismatch or
  /// malformed payload; restore into a fresh instance after a throw.
  void read_checkpoint(const state::CheckpointReader& ck);
  /// Convenience: CheckpointReader(image) + read_checkpoint.
  void restore(std::span<const std::uint8_t> image);

 private:
  [[nodiscard]] PipeState pipe_state_for(const SensorNode& node) const;
  void apply_demand_factor(double factor);
  /// Runs body(i) for every node — serially, or on the pool (commission /
  /// calibration fan-out; the epoch loop claims chunks instead).
  void dispatch(util::ThreadPool* pool,
                const std::function<void(std::size_t)>& body);
  /// Serially freezes this epoch's per-sensor hydraulic state into the SoA
  /// input arrays (same arithmetic, same order, as pipe_state_for).
  void snapshot_epoch_inputs();
  /// Rehydrates sensor `i`'s frozen epoch input from the SoA arrays.
  [[nodiscard]] PipeState snapshot_state(std::size_t i) const;
  /// Advances sensor `i` one epoch from the SoA inputs and publishes its
  /// sample fields back into the SoA outputs. Runs on pool workers for
  /// disjoint `i` — everything it touches is per-sensor.
  void advance_sensor(std::size_t i);
  /// The claim loop each worker of an epoch runs: takes the next chunk from
  /// the epoch cursor until the fleet is exhausted, and records how long
  /// worker `worker` was busy doing so.
  void claim_chunks(std::size_t worker);

  hydro::WaterNetwork& net_;
  FleetConfig config_;
  std::vector<double> base_demands_;  // indexed by NodeId; 0 for reservoirs
  std::vector<std::unique_ptr<SensorNode>> nodes_;
  std::vector<std::uint8_t> estimate_valid_;  // per sensor, 1 = in service

  /// Per-epoch hot state, structure-of-arrays: one slot per sensor. The
  /// epoch loop writes inputs serially, workers read inputs / write outputs
  /// for disjoint sensors, and cold readers scan outputs without touching
  /// SensorNode.
  struct HotState {
    // Epoch inputs (frozen network state).
    std::vector<double> mean_velocity_mps;
    std::vector<double> point_velocity_mps;
    std::vector<double> pressure_pa;
    std::vector<double> temperature_k;
    // Latest-sample outputs (mirrors of the node's trace back()).
    std::vector<double> t_s;
    std::vector<double> bridge_voltage;
    std::vector<double> filtered_voltage;
    std::vector<double> estimate_mps;
    std::vector<std::int8_t> direction;
    std::vector<std::uint8_t> has_sample;

    void resize(std::size_t n);
  };
  HotState hot_;

  /// Sensors per chunk and the next unclaimed chunk of the running epoch;
  /// both set before each release.
  std::size_t chunk_sensors_ = 1;
  std::atomic<std::size_t> next_chunk_{0};
  /// Busy seconds of each worker in the last epoch (disjoint slots; wall
  /// clock, scheduling telemetry only).
  std::vector<double> worker_busy_s_;
  long long epoch_index_ = 0;
  std::unique_ptr<util::WorkerTeam> team_;
  util::ThreadPool* team_pool_ = nullptr;

  util::Seconds t_{0.0};
  long long solve_failures_ = 0;
};

}  // namespace aqua::fleet
