// fluid.hpp — temperature-dependent thermophysical properties of the media the
// MAF sensor operates in: potable water (the paper's target) and air (the
// die's original automotive application).
//
// Property fits are standard engineering correlations valid over 0–90 °C
// (water) and −40…+125 °C (air); sources are noted per function. All values
// are coherent SI.
#pragma once

#include "util/units.hpp"

namespace aqua::phys {

enum class Medium { kWater, kAir };

/// Thermophysical state of a fluid at one temperature (and pressure for gas
/// density).
struct FluidProperties {
  double density;               ///< kg/m^3
  double dynamic_viscosity;     ///< Pa·s
  double thermal_conductivity;  ///< W/(m·K)
  double specific_heat;         ///< J/(kg·K), isobaric

  /// Prandtl number cp·mu/k.
  [[nodiscard]] double prandtl() const {
    return specific_heat * dynamic_viscosity / thermal_conductivity;
  }
};

/// Liquid water at temperature `t` (validated 0–90 °C). Pressure dependence of
/// liquid properties is negligible at the paper's 0–7 bar and is ignored.
[[nodiscard]] FluidProperties water_properties(util::Kelvin t);

/// Dry air at temperature `t` and absolute pressure `p`.
[[nodiscard]] FluidProperties air_properties(util::Kelvin t,
                                             util::Pascals p = util::bar(1.01325));

/// Dispatch helper for code that is generic over the medium.
[[nodiscard]] FluidProperties properties(Medium medium, util::Kelvin t,
                                         util::Pascals p = util::bar(1.01325));

}  // namespace aqua::phys
