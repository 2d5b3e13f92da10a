// turbine.hpp — turbine-wheel flowmeter model (the class the paper says its
// prototype matches in accuracy "with cost reduction and improved reliability
// since no mechanical moving parts are exposed in water"; also [5] in the
// paper's references). Rotor dynamics: fluid torque ∝ (v − rω)·v, opposed by
// bearing friction (static + viscous). Below a cutoff velocity the static
// friction stalls the wheel — the classic low-flow failure of turbine meters.
// Output is a pulse rate: K-factor pulses per unit volume. Bearing wear
// accumulates with rotor revolutions and raises friction over life.
#pragma once

#include "baseline/meter.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace aqua::baseline {

struct TurbineSpec {
  util::Metres bore = util::millimetres(80.0);
  double rotor_radius_m = 0.03;
  double rotor_inertia = 2e-5;         ///< kg·m²
  double blade_gain = 0.8;             ///< rω/v at equilibrium, no friction
  double fluid_torque_coeff = 4e-3;    ///< N·m per (m/s)² of slip·speed
  double static_friction_nm = 4e-5;    ///< bearing breakaway torque
  double viscous_friction = 1e-6;      ///< N·m·s/rad
  double k_factor_pulses_per_rev = 12.0;
  double resolution_percent_fs = 1.5;  ///< typical utility turbine
  double relative_cost = 3.0;
  util::MetresPerSecond full_scale = util::metres_per_second(2.5);
  double wear_per_megarev = 0.05;      ///< fractional friction growth / 1e6 rev
};

class TurbineMeter final : public FlowMeter {
 public:
  TurbineMeter(const TurbineSpec& spec, util::Rng rng);

  util::MetresPerSecond step(util::MetresPerSecond true_velocity,
                             util::Seconds dt) override;

  [[nodiscard]] const MeterSpec& meter_spec() const override { return record_; }
  [[nodiscard]] const TurbineSpec& spec() const { return spec_; }

  [[nodiscard]] bool stalled() const;
  [[nodiscard]] double total_revolutions() const { return revolutions_; }
  /// Wear-induced friction multiplier (1 when new).
  [[nodiscard]] double wear_factor() const;
  /// Velocity below which a new meter's rotor cannot break away.
  [[nodiscard]] util::MetresPerSecond stall_velocity() const;

 private:
  TurbineSpec spec_;
  MeterSpec record_;
  util::Rng rng_;
  double omega_ = 0.0;        // rad/s
  double revolutions_ = 0.0;  // lifetime accumulator
};

}  // namespace aqua::baseline
