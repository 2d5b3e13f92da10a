// rig.hpp — the Vinci water-station test rig (paper §5, Fig. 10): "a dedicated
// line for the measurements ... in which pressure and water speed could be
// fine tuned", instrumented with the MAF prototype, the Promag-50-class
// reference magmeter, and (for the comparison table) a turbine meter. The rig
// co-simulates the line at the control rate and the anemometer at the
// modulator clock, and provides the calibration sweep used to fit King's law.
#pragma once

#include <memory>
#include <span>

#include "baseline/magmeter.hpp"
#include "baseline/turbine.hpp"
#include "core/calibration.hpp"
#include "core/cta.hpp"
#include "hydro/water_line.hpp"
#include "util/rng.hpp"

namespace aqua::cta {

struct RigConfig {
  hydro::WaterLineConfig line{};
  maf::MafSpec maf{};
  isif::IsifConfig isif{};
  CtaConfig cta{};
  baseline::MagMeterSpec magmeter{};
  baseline::TurbineSpec turbine{};
  std::uint64_t seed = 42;
};

/// ISIF channel preset for long scenario runs: 64 kHz modulator, ÷32 CIC —
/// same 2 kHz control rate as the default 256 kHz/÷128 channel but 4× fewer
/// simulation ticks (at ~2 bits of ΣΔ resolution cost).
[[nodiscard]] isif::IsifConfig fast_isif_config();

/// Coarsest channel preset for physics-dominated scenario runs (fouling,
/// membrane, packaging): 16 kHz modulator, ÷8 CIC — still the 2 kHz control
/// rate, 16× fewer simulation ticks than the default channel at ~4 bits of
/// ΣΔ resolution cost. Loop dynamics and fouling physics are unchanged; use
/// only where ADC resolution is not what the scenario tests.
[[nodiscard]] isif::IsifConfig coarse_isif_config();

class VinciRig {
 public:
  explicit VinciRig(const RigConfig& config);

  /// Settles the loop at zero flow and nulls the direction channel.
  void commission(util::Seconds settle = util::Seconds{3.0});

  /// Advances line, anemometer and reference meters together by `duration`.
  void run(util::Seconds duration);

  /// Static calibration sweep: for each mean-line speed, holds a clean
  /// environment (profile factor applied, turbulence off) for `dwell` and
  /// records the settled bridge voltage. Returns the fitted King's law.
  [[nodiscard]] KingFit calibrate(std::span<const double> speeds_mps,
                                  util::Seconds dwell = util::Seconds{2.0});

  /// Forward + reverse calibration pair. The reverse transfer differs because
  /// the controlled heater rides in its twin's wake (needs less drive), so a
  /// bidirectional installation calibrates both senses.
  struct BidirectionalFit {
    KingFit forward;
    KingFit reverse;
  };
  [[nodiscard]] BidirectionalFit calibrate_bidirectional(
      std::span<const double> speeds_mps,
      util::Seconds dwell = util::Seconds{2.0});

  /// Probe-point/mean velocity factor at the given mean line speed (what the
  /// insertion calibration absorbs).
  [[nodiscard]] double profile_factor_at(util::MetresPerSecond mean) const;

  [[nodiscard]] hydro::WaterLine& line() { return line_; }
  [[nodiscard]] CtaAnemometer& anemometer() { return *anemometer_; }
  [[nodiscard]] baseline::MagMeter& magmeter() { return magmeter_; }
  [[nodiscard]] baseline::TurbineMeter& turbine() { return turbine_; }
  [[nodiscard]] const RigConfig& config() const { return config_; }

  /// Latest reference-meter readings (updated by run()).
  [[nodiscard]] util::MetresPerSecond magmeter_reading() const;
  [[nodiscard]] util::MetresPerSecond turbine_reading() const;

  [[nodiscard]] util::Seconds control_period() const;

 private:
  RigConfig config_;
  hydro::WaterLine line_;
  std::unique_ptr<CtaAnemometer> anemometer_;
  baseline::MagMeter magmeter_;
  baseline::TurbineMeter turbine_;
  double mag_reading_ = 0.0;
  double turbine_reading_ = 0.0;
};

}  // namespace aqua::cta
