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
// Parallel execution model (DESIGN.md §12): every fan-out — commission,
// calibration and each epoch — is one ThreadPool::parallel_for with one
// sensor per index, and each worker claims the next unclaimed sensor until
// none is left. A worker that wakes late or draws slow sensors simply claims
// fewer, so the load balances from the first epoch, with no cost model to
// warm up. Serially the caller runs the sensors in index order.
//
// Determinism contract (the load-bearing property): each SensorNode owns all
// of its mutable state and draws from its private counter-based RNG stream
// (util::Rng::stream(root_seed, sensor_index)), and the network is solved
// serially before the fan-out and only read during it, so every worker
// derives a sensor's pipe state from the same frozen solution. Sensor tasks
// (an advance, or an advance followed by that sensor's re-commission)
// therefore commute, and the same root seed produces bit-identical
// per-sensor traces for ANY thread count and claim order. Which worker claims
// which sensor depends on wall-clock timing and is explicitly outside the
// contract; the simulation output must not (and does not) depend on it.
// tests/fleet/ enforce both.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "fleet/report.hpp"
#include "fleet/sensor_node.hpp"
#include "hydro/network.hpp"
#include "sim/schedule.hpp"
#include "state/checkpoint.hpp"
#include "util/thread_pool.hpp"
#include "util/units.hpp"

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
  /// once. Throws std::invalid_argument for a non-positive or non-finite
  /// `config.epoch`, before any sensor is built, and std::runtime_error if
  /// the initial solve fails.
  FleetEngine(hydro::WaterNetwork& network,
              std::span<const SensorPlacement> placements,
              const FleetConfig& config);

  /// Runs the ISIF channel self-test on every sensor, then settles every
  /// sensor at zero flow (parallel across `pool` if given). Self-test results
  /// surface through SensorNode::last_self_test() and the FleetReport; the
  /// test leaves the channel bit-identical to its pre-test state, so the
  /// determinism checksum is unaffected.
  void commission(util::Seconds settle = util::Seconds{1.0},
                  util::ThreadPool* pool = nullptr);

  /// Field-service action on one node, the supervisor's re-commission move:
  /// reboot the electronics, run the channel self-test, re-null the direction
  /// channel at zero flow under the current network solution. Touches node
  /// `i` only. Returns the self-test result (also kept as the node's
  /// last_self_test()); throws std::out_of_range if `i >= size()`. The
  /// supervisor does not call this between epochs: it hands its due sensors
  /// to step_epoch, which re-commissions each inside the fan-out.
  isif::ChannelSelfTestResult recommission(std::size_t i, util::Seconds settle);

  /// Per-sensor King's-law sweep (parallel across `pool` if given). Each die
  /// gets its own fit, absorbing its tolerance draws.
  void calibrate(std::span<const double> mean_speeds,
                 util::Seconds dwell = util::Seconds{0.5},
                 util::ThreadPool* pool = nullptr);

  /// Fleet-wide nominal fit instead of per-sensor sweeps (cheap, less exact).
  void set_shared_fit(const cta::KingFit& fit);

  /// Co-simulates `duration` (epochs_for(duration) epochs); serial on the
  /// caller's thread when `pool` is null, else parallel — bit-identical
  /// either way.
  void run(util::Seconds duration, util::ThreadPool* pool = nullptr);

  /// Epochs in `duration`, by util::steps_to_cover: 0.14 s of 0.02 s epochs
  /// is 7, not the 8 that ceil(7.000000000000001) gives.
  [[nodiscard]] long long epochs_for(util::Seconds duration) const;

  /// Advances exactly one epoch: demand scaling, network solve, one
  /// fan-out item per sensor, clock tick. run() is a loop over this. Fault
  /// injectors act *between* step_epoch calls on the caller's thread, which
  /// keeps campaigns bit-reproducible at any thread count. A non-null pool
  /// runs the items as one parallel_for, and every item has finished, trace
  /// spans included, on return.
  void step_epoch(util::ThreadPool* pool = nullptr) {
    step_epoch(pool, {}, util::Seconds{0.0});
  }

  /// The same epoch, with every sensor in `due` re-commissioned right after
  /// its own advance: recommission(i, settle) under this epoch's solution,
  /// exactly as if called after step_epoch returned. The epoch's size()
  /// items are the due sensors first (a re-commission outlasts an advance),
  /// then every other sensor in index order, so every sensor advances once.
  /// `due` must be strictly increasing and below size(): throws
  /// std::out_of_range or std::invalid_argument before anything is touched.
  void step_epoch(util::ThreadPool* pool, std::span<const std::size_t> due,
                  util::Seconds settle);

  /// Does nothing. Kept only because existing callers still scope their
  /// pooled step_epoch loops with one; a pooled epoch holds no worker
  /// between calls.
  class TeamSession {
   public:
    TeamSession(FleetEngine&, util::ThreadPool*) {}
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
  /// Epochs whose network solve failed to converge. The sensors of such an
  /// epoch see the solver's last, non-converged iterate (network.hpp).
  [[nodiscard]] long long solve_failures() const { return solve_failures_; }
  /// Epochs stepped since construction.
  [[nodiscard]] long long epochs() const { return epoch_index_; }

  /// Latest per-sensor estimates (sensor order; the input a
  /// cta::LeakLocalizer expects) with a validity mask. A sensor is invalid
  /// while it has never produced a sample or while the supervision layer has
  /// marked it out of service (set_estimate_valid); invalid values are pinned
  /// to 0.0 so garbage cannot leak into downstream consumers unnoticed.
  [[nodiscard]] MaskedEstimates latest_estimates_masked() const;

  /// Marks sensor `i`'s estimate stream (in)valid. The supervisor drives this
  /// as nodes move through quarantine and recovery; all sensors start valid.
  /// Throws std::out_of_range if `i >= size()`.
  void set_estimate_valid(std::size_t i, bool valid);
  [[nodiscard]] bool estimate_valid(std::size_t i) const {
    return estimate_valid_[i] != 0;
  }

  // --- crash-consistent checkpoint/restore (DESIGN.md §14) -----------------

  /// Serialises the engine's evolving state into `ck` as CRC-framed sections
  /// (META config fingerprint, OBSC deterministic counters, NETW hydraulic
  /// state, FLEN engine scalars + estimate mask, NODS every sensor). Must run
  /// at a quiescent point — between step_epoch calls, no epoch in flight.
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
  /// The pipe state `node` sees under the current network solution. Reads
  /// the network only, so fan-out workers may call it concurrently.
  [[nodiscard]] PipeState pipe_state_for(const SensorNode& node) const;
  void apply_demand_factor(double factor);
  /// The engine's one fan-out: runs body(k) for every k in [0, items) — in
  /// order on the caller when `pool` is null, else as one parallel_for.
  /// Returns the pool's per-worker busy seconds, or nothing when serial.
  std::vector<double> dispatch(util::ThreadPool* pool, std::size_t items,
                               const std::function<void(std::size_t)>& body);
  /// Throws std::out_of_range naming `what` unless `i < size()`.
  void check_sensor(std::size_t i, const char* what) const;
  /// recommission() without the index check; `sim_s` stamps its trace span.
  isif::ChannelSelfTestResult recommission_node(std::size_t i,
                                                util::Seconds settle,
                                                double sim_s);
  /// Advances sensor `i` one epoch under its pipe's state. Runs on pool
  /// workers for disjoint `i` — everything it writes is per-sensor.
  void advance_sensor(std::size_t i);

  hydro::WaterNetwork& net_;
  FleetConfig config_;
  std::vector<double> base_demands_;  // indexed by NodeId; 0 for reservoirs
  std::vector<std::unique_ptr<SensorNode>> nodes_;
  std::vector<std::uint8_t> estimate_valid_;  // per sensor, 1 = in service
  long long epoch_index_ = 0;

  util::Seconds t_{0.0};
  long long solve_failures_ = 0;
};

}  // namespace aqua::fleet
