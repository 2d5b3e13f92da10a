#include "phys/convection.hpp"

#include <cmath>
#include <stdexcept>

namespace aqua::phys {

using util::Kelvin;
using util::Metres;
using util::MetresPerSecond;
using util::Watts;

double reynolds(const FluidProperties& fluid, MetresPerSecond speed,
                Metres diameter) {
  return fluid.density * std::abs(speed.value()) * diameter.value() /
         fluid.dynamic_viscosity;
}

double kramers_nusselt(double reynolds_number, double prandtl_number) {
  if (reynolds_number < 0.0 || prandtl_number <= 0.0)
    throw std::invalid_argument("kramers_nusselt: non-physical inputs");
  // At Re = 0 the forced term 0.57·cbrt(Pr)·sqrt(Re) is +0 or -0 for every
  // finite Pr, and adding either zero gives the floor + 0.0 bit for bit.
  if (reynolds_number == 0.0 && std::isfinite(prandtl_number))
    return 0.42 * std::pow(prandtl_number, 0.20) + 0.0;
  return 0.42 * std::pow(prandtl_number, 0.20) +
         0.57 * std::cbrt(prandtl_number) * std::sqrt(reynolds_number);
}

double film_coefficient(const FluidProperties& fluid, MetresPerSecond speed,
                        const WireGeometry& wire) {
  const double re = reynolds(fluid, speed, wire.diameter);
  const double nu = kramers_nusselt(re, fluid.prandtl());
  return nu * fluid.thermal_conductivity / wire.diameter.value();
}

KingCoefficients king_coefficients(const FluidProperties& fluid,
                                   const WireGeometry& wire) {
  // Q = Nu·k/d · (pi·d·L) · ΔT = pi·L·k·Nu·ΔT, so with Kramers:
  //   A = pi·L·k·0.42·Pr^0.2
  //   B = pi·L·k·0.57·Pr^(1/3)·sqrt(rho·d/mu)
  constexpr double kPi = 3.14159265358979323846;
  const double common = kPi * wire.length.value() * fluid.thermal_conductivity;
  const double pr = fluid.prandtl();
  return KingCoefficients{
      common * 0.42 * std::pow(pr, 0.20),
      common * 0.57 * std::cbrt(pr) *
          std::sqrt(fluid.density * wire.diameter.value() / fluid.dynamic_viscosity),
      0.5};
}

Watts convective_loss(const FluidProperties& fluid, const WireGeometry& wire,
                      MetresPerSecond speed, Kelvin overtemperature) {
  const auto [a, b, n] = king_coefficients(fluid, wire);
  const double v = std::abs(speed.value());
  return Watts{overtemperature.value() * (a + b * std::pow(v, n))};
}

}  // namespace aqua::phys
