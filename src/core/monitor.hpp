// monitor.hpp — diffusive network monitoring (paper §6): with cheap insertion
// sensors spread across a distribution network, "any malfunction behaviour
// (e.g. water loss in tube)" can be "immediately localized and isolated".
// This module implements the application layer on top of hydro::WaterNetwork:
//
//   * detection — the residual between measured pipe velocities and the
//     calibrated baseline exceeds what sensor resolution explains;
//   * localisation — model-based matching: for every candidate junction a
//     unit leak is simulated, and the measured residual is least-squares
//     matched against each candidate's sensitivity signature.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "hydro/network.hpp"
#include "util/units.hpp"

namespace aqua::cta {

struct LeakHypothesis {
  hydro::WaterNetwork::NodeId node;
  double estimated_flow_m3s;  ///< leak magnitude that best explains the data
  double residual_norm;       ///< unexplained residual (lower = better match)
};

class LeakLocalizer {
 public:
  /// `sensors` are the pipes instrumented with MAF probes; `resolution` is
  /// the per-sensor velocity resolution (sets the detection threshold).
  LeakLocalizer(hydro::WaterNetwork& network,
                std::vector<hydro::WaterNetwork::PipeId> sensors,
                util::MetresPerSecond resolution);

  /// Solves the healthy network and records baseline sensor velocities and
  /// per-candidate leak signatures. Call once after network construction (or
  /// whenever demands change). Throws std::runtime_error if a solve fails.
  void calibrate();

  /// Baseline velocity at each instrumented pipe (m/s), in sensor order.
  [[nodiscard]] std::span<const double> baseline() const { return baseline_; }

  /// True if `measured` (one velocity per sensor, m/s) is inconsistent with
  /// the healthy baseline beyond 3× the combined sensor resolution.
  [[nodiscard]] bool leak_detected(std::span<const double> measured) const;

  /// Graceful-degradation variant: only sensors with a nonzero `valid` flag
  /// participate, and the detection threshold scales with the surviving
  /// sensor count (fleet::MaskedEstimates is the intended source). With zero
  /// valid sensors nothing can be detected and this returns false.
  [[nodiscard]] bool leak_detected(std::span<const double> measured,
                                   std::span<const std::uint8_t> valid) const;

  /// Ranks candidate junctions by how well a single leak there explains the
  /// measurement (best first). Requires calibrate() to have run.
  [[nodiscard]] std::vector<LeakHypothesis> locate(
      std::span<const double> measured) const;

  /// Graceful-degradation variant: the least-squares match runs over the
  /// valid-sensor subset only, so a quarantined sensor's pinned value can
  /// neither vote nor poison the ranking. With zero valid sensors there is no
  /// evidence and the ranking is empty.
  [[nodiscard]] std::vector<LeakHypothesis> locate(
      std::span<const double> measured,
      std::span<const std::uint8_t> valid) const;

  [[nodiscard]] std::size_t sensor_count() const { return sensors_.size(); }

  /// Emitter coefficient (m³/s per √m) of the unit probe leak used while
  /// building signatures. The default suits lightly loaded districts; drop it
  /// when the probe flow would rival the district's demand (heavily loaded
  /// networks may fail to converge under a large synthetic leak). Call before
  /// calibrate().
  void set_probe_emitter(double coefficient) { probe_emitter_ = coefficient; }

 private:
  hydro::WaterNetwork& net_;
  std::vector<hydro::WaterNetwork::PipeId> sensors_;
  util::MetresPerSecond resolution_;
  std::vector<double> baseline_;                    // per sensor
  std::vector<hydro::WaterNetwork::NodeId> candidates_;
  std::vector<std::vector<double>> signatures_;     // per candidate, per sensor
  double probe_emitter_ = 1e-3;                     // unit-leak emitter coeff
};

}  // namespace aqua::cta
