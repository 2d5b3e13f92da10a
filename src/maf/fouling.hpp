// fouling.hpp — surface-fouling state of one heater element: gas-bubble
// coverage (paper Fig. 7) and CaCO3 deposit thickness (paper Fig. 8, Eq. 3).
// Both states modulate the heater→fluid heat path and are the reason the
// paper adopts pulsed drive, reduced overtemperature and SiN passivation.
#pragma once

#include "maf/environment.hpp"
#include "phys/carbonate.hpp"
#include "phys/saturation.hpp"
#include "state/serial.hpp"
#include "util/units.hpp"

namespace aqua::maf {

struct FoulingParameters {
  /// Bubble nucleation rate (fraction of surface per second per kelvin above
  /// the onset overtemperature).
  double nucleation_rate = 0.02;
  /// Bubble detachment rate at zero flow (fraction per second).
  double detachment_rate = 0.01;
  /// Extra detachment per (m/s) of flow shear.
  double shear_detachment = 0.5;
  /// CaCO3 kinetics; surface_reactivity reflects passivation quality.
  phys::ScalingKinetics scaling{};
};

/// The inputs of FoulingState::step that depend only on the water: every
/// heater and every step under one environment share them.
struct FoulingDrive {
  /// Wall overtemperature at which bubbles nucleate (K), from
  /// phys::bubble_onset_overtemperature.
  double bubble_onset = 0.0;
  /// phys::scaling_drive of the water chemistry (mg/L as CaCO3).
  double scaling_drive = 0.0;
  /// Wall temperature (K) below which a clean wall grows no deposit: the
  /// phys::caco3_saturation_temperature of scaling_drive, less a 1e-6 K
  /// margin that keeps every wall below it undersaturated after rounding.
  /// NaN for a non-finite drive, so no wall is below it.
  double saturation_wall = 0.0;
};

[[nodiscard]] FoulingDrive fouling_drive(const Environment& env);

/// Per-heater fouling state; integrate with step().
class FoulingState {
 public:
  explicit FoulingState(const FoulingParameters& params = {});

  /// Advances bubble and deposit dynamics by dt at the given wall temperature.
  void step(util::Seconds dt, util::Kelvin wall_temperature,
            const Environment& env) {
    step(dt, wall_temperature, env, fouling_drive(env));
  }
  /// The same step with `drive` == fouling_drive(env) supplied, for a caller
  /// that steps one environment many times.
  void step(util::Seconds dt, util::Kelvin wall_temperature,
            const Environment& env, const FoulingDrive& drive);

  /// Fraction of the surface blanketed by gas bubbles, in [0, 0.95].
  [[nodiscard]] double bubble_coverage() const { return bubble_coverage_; }
  /// CaCO3 layer thickness (m).
  [[nodiscard]] double deposit_thickness() const { return deposit_thickness_; }

  /// Multiplier (0..1] on the convective film conductance from bubble
  /// blanketing (bubbles insulate the covered fraction almost completely).
  [[nodiscard]] double convection_factor() const;

  /// Series thermal resistance (K/W) added by the deposit over `area`.
  [[nodiscard]] double deposit_resistance(util::SquareMetres area) const;

  /// Resets to a clean surface (fresh die or after cleaning).
  void clean();

  // --- fault-injection ports (src/fault) -------------------------------------
  /// Forces the bubble coverage to `coverage` (clamped to [0, 0.95]): a slug
  /// of undissolved air adhering to the element, as a fault campaign injects
  /// it. Subsequent step() dynamics (shear detachment, nucleation) act on the
  /// forced value, so injected bubbles shed naturally once flow resumes.
  void set_bubble_coverage(double coverage);

  /// Forces the CaCO3 deposit thickness (m, clamped to >= 0): an accelerated
  /// fouling ramp. step() keeps growing it per the scaling kinetics.
  void set_deposit_thickness(double thickness_m);

  [[nodiscard]] const FoulingParameters& parameters() const { return params_; }
  void set_parameters(const FoulingParameters& p) { params_ = p; }

  /// Checkpoint support: the two surface states, bypassing the clamping
  /// setters so restore is exact. load_state refuses what no running surface
  /// holds — a coverage outside [0, 0.95], or a deposit that is negative,
  /// -0.0 or not finite — and then leaves the state as it was.
  void save_state(state::Writer& w) const {
    w.f64(bubble_coverage_);
    w.f64(deposit_thickness_);
  }
  void load_state(state::Reader& r);

 private:
  FoulingParameters params_;
  double bubble_coverage_ = 0.0;
  double deposit_thickness_ = 0.0;
};

}  // namespace aqua::maf
