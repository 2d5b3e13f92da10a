// carbonate.hpp — calcium-carbonate scaling chemistry (paper Eq. 3):
//   Ca(HCO3)2 -> CaCO3 + CO2 + H2O
// CaCO3 is an inverse-solubility salt: solubility *falls* with temperature, so
// deposition concentrates on the hottest surface in the system — the heater.
// The model computes a saturation ratio from water hardness and wall
// temperature and integrates a deposit-thickness ODE; the deposit adds a
// series thermal resistance that biases the anemometer (experiment E8).
#pragma once

#include "util/units.hpp"

namespace aqua::phys {

/// Bulk water chemistry relevant to scaling.
struct WaterChemistry {
  double hardness_mg_per_l = 250.0;   ///< as CaCO3; Tuscan potable water is hard
  double alkalinity_mg_per_l = 200.0; ///< as CaCO3
  double ph = 7.6;
};

/// Effective CaCO3 solubility (mg/L as CaCO3) at the given temperature in
/// CO2-equilibrated potable water. Retrograde fit anchored at ~330 mg/L at
/// 15 °C, so typical hard distribution water is near-saturated at bulk
/// temperature and scales only on heated surfaces.
[[nodiscard]] double caco3_solubility_mg_per_l(util::Kelvin t);

/// The inverse of caco3_solubility_mg_per_l: the temperature at which the
/// solubility equals `drive_mg_per_l`, so that hotter walls are
/// supersaturated by that drive. +inf for a drive <= 0, which saturates no
/// wall, and NaN for a NaN drive. Below the solubility fit's underflow (walls
/// above ~31,800 °C) it returns that limit instead, so the answer stays
/// where the forward fit is accurate.
[[nodiscard]] util::Kelvin caco3_saturation_temperature(double drive_mg_per_l);

/// Driving hardness (mg/L as CaCO3): the scaling-prone fraction of the
/// hardness, limited by alkalinity and weighted by the pH speciation factor.
/// The numerator of saturation_ratio; it does not depend on temperature.
[[nodiscard]] double scaling_drive(const WaterChemistry& chem);

/// Saturation ratio S = [driving hardness]/[solubility at wall temperature].
/// S > 1 means the wall scales; S ≤ 1 means deposits slowly redissolve.
[[nodiscard]] double saturation_ratio(const WaterChemistry& chem,
                                      util::Kelvin wall_temperature);
/// The same ratio from a precomputed scaling_drive(chem), with the same bits.
[[nodiscard]] double saturation_ratio(double drive,
                                      util::Kelvin wall_temperature);

/// Kinetics of deposit growth on a heated wall.
struct ScalingKinetics {
  /// Linear growth-rate constant (m/s per unit of supersaturation (S−1)) for
  /// a bare, reactive surface: ~0.7 µm/day per unit of (S−1), consistent with
  /// fouling rates reported for heated surfaces in hard water.
  double growth_rate = 8.0e-12;
  /// Dissolution rate constant (m/s per unit undersaturation) when S < 1.
  double dissolution_rate = 2.0e-12;
  /// Surface reactivity multiplier: 1 for a bare metal surface; the paper's
  /// PECVD SiN passivation suppresses nucleation — use ~0.02.
  double surface_reactivity = 1.0;
};

/// Deposit growth rate dδ/dt (m/s) for the given state.
[[nodiscard]] double deposit_growth_rate(const ScalingKinetics& kinetics,
                                         const WaterChemistry& chem,
                                         util::Kelvin wall_temperature,
                                         double current_thickness_m);
/// The same rate from a precomputed scaling_drive(chem), with the same bits.
[[nodiscard]] double deposit_growth_rate(const ScalingKinetics& kinetics,
                                         double drive,
                                         util::Kelvin wall_temperature,
                                         double current_thickness_m);

/// Thermal resistance (K/W) added by a deposit layer of the given thickness
/// over the given area. Calcite conductivity ~2.2 W/(m·K).
[[nodiscard]] double deposit_thermal_resistance(double thickness_m,
                                                util::SquareMetres area);

}  // namespace aqua::phys
