// sensor_node.hpp — one deployed insertion sensor of a monitoring fleet
// (paper §6: cheap MAF probes "widely diffused all over the water
// distribution channels"). A SensorNode owns *every* piece of mutable state
// it touches — its MAF die, ISIF channel, CTA loop, King fit, fouling state,
// per-sensor turbulence and its own counter-based RNG stream — so a fleet of
// nodes can be stepped on any number of threads with bit-identical results.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/calibration.hpp"
#include "core/cta.hpp"
#include "core/estimator.hpp"
#include "hydro/network.hpp"
#include "isif/selftest.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace aqua::fleet {

/// Where and how a sensor is inserted into the network.
struct SensorPlacement {
  hydro::WaterNetwork::PipeId pipe = 0;
  /// Probe head position as a fraction of the pipe radius (0 = axis).
  double radius_fraction = 0.0;
};

/// Hydraulic state of one pipe over one co-simulation epoch, as handed to the
/// sensor attached to it (profile-corrected to the probe point by the engine).
struct PipeState {
  double mean_velocity_mps = 0.0;   ///< signed area-mean — the ground truth
  double point_velocity_mps = 0.0;  ///< at the probe head, before turbulence
  util::Pascals pressure = util::bar(2.0);
  util::Kelvin temperature = util::celsius(15.0);
};

/// One trace sample per co-simulation epoch. The determinism tests compare
/// these fields bit-exactly across thread counts.
struct TraceSample {
  double t_s = 0.0;
  double bridge_voltage = 0.0;    ///< commanded supply U, V
  double filtered_voltage = 0.0;  ///< U after the 0.1 Hz output IIR, V
  double estimate_mps = 0.0;      ///< signed mean-velocity estimate
  double true_mean_mps = 0.0;     ///< network ground truth at the epoch
  int direction = 0;              ///< −1 / 0 / +1
};

/// Template configuration shared by every node of a fleet (placement and RNG
/// stream are per-node).
struct SensorNodeConfig {
  maf::MafSpec maf{};
  isif::IsifConfig isif{};
  cta::CtaConfig cta{};
  /// Relative rms of the per-sensor turbulent fluctuation on the point
  /// velocity, and its AR(1) correlation time.
  double turbulence_intensity = 0.01;
  util::Seconds turbulence_correlation{0.05};
  util::MetresPerSecond full_scale = util::metres_per_second(2.5);
};

class SensorNode {
 public:
  /// `rng` must be this node's private stream (util::Rng::stream(root, index));
  /// the node derives all its stochastic draws from it.
  SensorNode(std::size_t index, SensorPlacement placement,
             const SensorNodeConfig& config, util::Metres pipe_diameter,
             util::Rng rng);

  SensorNode(const SensorNode&) = delete;
  SensorNode& operator=(const SensorNode&) = delete;

  /// Settles the loop at zero flow under the pipe's ambient and nulls the
  /// direction channel.
  void commission(const PipeState& state, util::Seconds settle);

  /// Runs the ISIF built-in self-test (paper §3's test bus: sine IP through
  /// the conversion chain into a Goertzel detector) on the measurement
  /// channel and stores the result for reporting. The helper resets the
  /// channel before and after the tone, and channel reset rewinds its noise
  /// streams (DESIGN.md §8), so on a freshly constructed, reset or rebooted
  /// node the downstream bitstream — and the fleet determinism checksum — is
  /// untouched.
  isif::ChannelSelfTestResult run_self_test(
      const isif::ChannelSelfTest& config = {});

  /// Result of the most recent run_self_test(), if any ran since the last
  /// reset().
  [[nodiscard]] const std::optional<isif::ChannelSelfTestResult>&
  last_self_test() const {
    return last_self_test_;
  }

  /// Field reboot: restarts the electronics only (CtaAnemometer::reboot).
  /// Die/package physics, the turbulence state (the flow does not reboot),
  /// the trace, the calibration fit and this node's RNG stream position all
  /// persist — the world does not rewind with the node.
  void reboot();

  /// King's-law sweep: holds each *mean* speed (profile factor folded in, as
  /// in the field calibration against a reference meter) for `dwell` and fits
  /// the law. Installs a FlowEstimator compensated to the pipe ambient.
  void calibrate(const PipeState& state, std::span<const double> mean_speeds,
                 util::Seconds dwell);

  /// Installs a pre-computed fit instead of sweeping (fleet-wide nominal
  /// calibration; cheap, but ignores this die's tolerances).
  void set_fit(const cta::KingFit& fit, util::Kelvin fit_temperature);

  /// Advances the CTA loop by `duration` under `state` (with this node's own
  /// turbulence stream superposed), then appends one trace sample.
  void advance(const PipeState& state, util::Seconds duration);

  /// Post-construction state: anemometer reset, turbulence zeroed, trace
  /// cleared, this node's RNG stream rewound — so the same stimulus replays
  /// bit-identically. An installed calibration fit is configuration and kept.
  void reset();

  [[nodiscard]] std::size_t index() const { return index_; }
  [[nodiscard]] const SensorPlacement& placement() const { return placement_; }
  [[nodiscard]] const std::vector<TraceSample>& trace() const { return trace_; }
  /// Latest trace sample, or nullopt before the first epoch.
  [[nodiscard]] std::optional<TraceSample> latest_sample() const {
    if (trace_.empty()) return std::nullopt;
    return trace_.back();
  }
  [[nodiscard]] bool calibrated() const { return estimator_.has_value(); }
  [[nodiscard]] const cta::KingFit& fit() const { return estimator_->fit(); }
  [[nodiscard]] cta::CtaAnemometer& anemometer() { return anemometer_; }
  [[nodiscard]] const cta::CtaAnemometer& anemometer() const {
    return anemometer_;
  }

  /// Point/mean profile factor at the given mean speed in this node's pipe.
  [[nodiscard]] double profile_factor_at(double mean_mps,
                                         util::Kelvin temperature) const;

  /// Fingerprint of this node's RNG stream position (util::Rng::fingerprint).
  /// Two runs that consumed the same draws in the same order agree here; the
  /// scaling tests use it to prove the claim order never alters RNG
  /// consumption.
  [[nodiscard]] std::uint64_t rng_fingerprint() const {
    return rng_.fingerprint();
  }

  /// Checkpoint support: the node's RNG stream, the whole CTA loop, the
  /// installed estimator/self-test result, the turbulence AR(1) state and
  /// the FULL trace — the fleet trace checksum folds every sample, so resume
  /// must reproduce the entire history, not just the tail.
  void save_state(state::Writer& w) const;
  void load_state(state::Reader& r);

 private:
  /// Environment at the probe head: point velocity + AR(1) turbulence.
  [[nodiscard]] maf::Environment environment_for(const PipeState& state) const;

  std::size_t index_;
  SensorPlacement placement_;
  SensorNodeConfig config_;
  util::Metres pipe_diameter_;
  util::Rng rng_;  // declared before anemometer_: construction order matters
  cta::CtaAnemometer anemometer_;
  // Captures rng_ *after* the anemometer split above, for reset() rewind.
  util::Rng initial_rng_;
  std::optional<cta::FlowEstimator> estimator_;
  std::optional<isif::ChannelSelfTestResult> last_self_test_;
  double turbulence_state_ = 0.0;
  std::vector<TraceSample> trace_;
};

}  // namespace aqua::fleet
