#include "phys/carbonate.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace aqua::phys {

using util::Kelvin;
using util::SquareMetres;

namespace {
// Effective (CO2-equilibrated) solubility of CaCO3 in potable water,
// retrograde with temperature: kAnchor mg/L at kAnchorCelsius, falling by a
// factor e every 1/kSlope kelvin. Anchored so that typical hard tap water
// (~250-300 mg/L as CaCO3) sits near saturation at distribution temperatures
// and becomes supersaturated on heated walls — the regime the paper's heater
// operates in (Eq. 3).
constexpr double kAnchor = 330.0;         // mg/L as CaCO3
constexpr double kAnchorCelsius = 15.0;   // °C
constexpr double kSlope = 0.022;          // 1/K
// The most negative exponent caco3_saturation_temperature answers for:
// exp(-700) ≈ 1e-304 is still a normal double, so the forward fit keeps its
// full precision at every wall below the returned temperature.
constexpr double kMinExponent = -700.0;
}  // namespace

double caco3_solubility_mg_per_l(Kelvin t) {
  const double tc = util::to_celsius(t);
  return kAnchor * std::exp(-kSlope * (tc - kAnchorCelsius));
}

Kelvin caco3_saturation_temperature(double drive_mg_per_l) {
  if (drive_mg_per_l <= 0.0)
    return Kelvin{std::numeric_limits<double>::infinity()};
  const double exponent =
      std::max(std::log(drive_mg_per_l / kAnchor), kMinExponent);
  return util::celsius(kAnchorCelsius - exponent / kSlope);
}

double scaling_drive(const WaterChemistry& chem) {
  // The scaling-prone fraction of hardness is limited by carbonate
  // availability (alkalinity) and boosted/suppressed by pH around 7.5
  // (carbonate speciation), captured by a logistic factor.
  const double driving =
      std::min(chem.hardness_mg_per_l, chem.alkalinity_mg_per_l);
  const double ph_factor = 1.0 / (1.0 + std::exp(-(chem.ph - 7.0) * 2.0));
  return driving * ph_factor;
}

double saturation_ratio(const WaterChemistry& chem, Kelvin wall_temperature) {
  return saturation_ratio(scaling_drive(chem), wall_temperature);
}

double saturation_ratio(double drive, Kelvin wall_temperature) {
  return drive / caco3_solubility_mg_per_l(wall_temperature);
}

double deposit_growth_rate(const ScalingKinetics& kinetics,
                           const WaterChemistry& chem, Kelvin wall_temperature,
                           double current_thickness_m) {
  return deposit_growth_rate(kinetics, scaling_drive(chem), wall_temperature,
                             current_thickness_m);
}

double deposit_growth_rate(const ScalingKinetics& kinetics, double drive,
                           Kelvin wall_temperature,
                           double current_thickness_m) {
  if (current_thickness_m < 0.0)
    throw std::invalid_argument("deposit_growth_rate: negative thickness");
  const double s = saturation_ratio(drive, wall_temperature);
  if (s >= 1.0) {
    // Growth slows as the deposit insulates the surface and its own outer face
    // cools: first-order saturation with a 10 µm characteristic thickness.
    const double self_limit = std::exp(-current_thickness_m / 10e-6);
    return kinetics.surface_reactivity * kinetics.growth_rate * (s - 1.0) *
           self_limit;
  }
  // Undersaturated: existing deposit slowly redissolves (never below zero —
  // the caller clamps thickness).
  return current_thickness_m > 0.0 ? -kinetics.dissolution_rate * (1.0 - s) : 0.0;
}

double deposit_thermal_resistance(double thickness_m, SquareMetres area) {
  if (thickness_m < 0.0 || area.value() <= 0.0)
    throw std::invalid_argument("deposit_thermal_resistance: bad inputs");
  constexpr double kCalciteConductivity = 2.2;  // W/(m·K)
  return thickness_m / (kCalciteConductivity * area.value());
}

}  // namespace aqua::phys
