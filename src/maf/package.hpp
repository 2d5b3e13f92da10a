// package.hpp — the insertion-probe packaging of the prototype (paper Fig. 9):
// die glued to a ceramic carrier with glob-top over the bonds, housed in a
// smoothed stainless-steel pipe head. The paper qualifies it against water
// infiltration, leakage current, corrosion and pressure. This model tracks
// those degradation mechanisms so the qualification experiment (E9 and the
// months-long soak of E8) can report them.
#pragma once

#include "state/rng_io.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace aqua::maf {

struct PackageSpec {
  /// Sealing quality in [0, 1]: 1 = perfect glob-top/coating (the paper's
  /// final assembly), lower values model a defective batch.
  double sealing_quality = 1.0;
  /// Baseline insulation resistance of a dry, sealed assembly.
  util::Ohms dry_insulation = util::Ohms{5e9};
  /// Corrosion susceptibility of exposed contacts (rate scale, 1/s at full
  /// exposure); stainless + coating makes this tiny when sealed.
  double corrosion_rate = 1e-7;
  /// Probe head drag/perturbation coefficient: fraction of the line dynamic
  /// pressure the smoothed head converts into local turbulence (paper §4:
  /// "profile has been smoothed to introduce low perturbations").
  double intrusiveness = 0.03;
};

class Package {
 public:
  Package(const PackageSpec& spec, util::Rng rng);

  /// Advances moisture ingress and corrosion by dt while immersed at the
  /// given pressure.
  void step(util::Seconds dt, util::Pascals pressure) {
    step(dt, ingress_rate(pressure));
  }
  /// The same step with `ingress` == ingress_rate(pressure) supplied, for a
  /// caller that steps one pressure many times.
  void step(util::Seconds dt, double ingress);

  /// Moisture ingress rate (fraction per second) through the seal at the
  /// given pressure.
  [[nodiscard]] double ingress_rate(util::Pascals pressure) const;

  /// Leakage resistance from the sensor contacts to the water; drops as
  /// moisture creeps in. A healthy assembly stays in the GΩ range.
  [[nodiscard]] util::Ohms insulation_resistance() const;

  /// Leakage current at the given bridge supply through the insulation path.
  [[nodiscard]] util::Amperes leakage_current(util::Volts supply) const;

  /// Accumulated corrosion damage in [0, 1]; above ~0.5 contact resistance
  /// becomes erratic (flagged by health()).
  [[nodiscard]] double corrosion() const { return corrosion_; }

  /// Contact series resistance added to the bridge wiring by corrosion.
  [[nodiscard]] util::Ohms contact_resistance() const;

  [[nodiscard]] bool healthy() const;

  /// Turbulence intensity (relative velocity fluctuation) the probe head adds
  /// at the sensing elements for a given line speed.
  [[nodiscard]] double added_turbulence(util::MetresPerSecond speed) const;

  [[nodiscard]] const PackageSpec& spec() const { return spec_; }

  /// Fresh assembly again: dry, pristine, pitting draw stream rewound.
  void reset();

  /// Fault-injection port (src/fault): adds `amount` of moisture fraction
  /// (clamped to [0, 1] total) — a seal breach flooding the cavity. Moisture
  /// cannot be driven back out in the field, so this is a permanent fault;
  /// step() keeps corroding the wet contacts from here on.
  void inject_moisture(double amount);

  [[nodiscard]] double moisture() const { return moisture_; }

  /// Checkpoint support: moisture (permanent fault state), corrosion and the
  /// pitting draw stream; bypasses inject_moisture's clamp so restore is
  /// exact.
  void save_state(state::Writer& w) const {
    state::save_rng(w, rng_);
    w.f64(moisture_);
    w.f64(corrosion_);
  }
  void load_state(state::Reader& r) {
    state::load_rng(r, rng_);
    moisture_ = r.f64();
    corrosion_ = r.f64();
  }

 private:
  PackageSpec spec_;
  util::Rng rng_;
  util::Rng initial_rng_;
  double moisture_ = 0.0;   // 0 dry .. 1 soaked
  double corrosion_ = 0.0;  // 0 pristine .. 1 destroyed
};

}  // namespace aqua::maf
