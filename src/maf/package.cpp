#include "maf/package.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace aqua::maf {

using util::Amperes;
using util::MetresPerSecond;
using util::Ohms;
using util::Pascals;
using util::Seconds;
using util::Volts;

Package::Package(const PackageSpec& spec, util::Rng rng)
    : spec_(spec), rng_(rng), initial_rng_(rng) {
  if (spec.sealing_quality < 0.0 || spec.sealing_quality > 1.0)
    throw std::invalid_argument("Package: sealing_quality outside [0,1]");
}

void Package::reset() {
  moisture_ = 0.0;
  corrosion_ = 0.0;
  rng_ = initial_rng_;
}

void Package::inject_moisture(double amount) {
  moisture_ = std::clamp(moisture_ + std::max(0.0, amount), 0.0, 1.0);
}

double Package::ingress_rate(Pascals pressure) const {
  // Pressure-driven creep through whatever the seal leaves open. A perfect
  // seal admits (almost) nothing.
  const double leak_path = 1.0 - spec_.sealing_quality;
  const double pressure_factor = 1.0 + util::to_bar(pressure);
  return 2e-6 * leak_path * pressure_factor;  // 1/s
}

void Package::step(Seconds dt, double ingress) {
  // Moisture ingress saturates at 1.
  moisture_ = std::min(1.0, moisture_ + ingress * dt.value());

  // Corrosion needs moisture at the contacts; add a little stochastic
  // pitting so two "identical" bad assemblies age differently.
  const double pitting = std::max(0.0, 1.0 + 0.3 * rng_.gaussian());
  corrosion_ = std::min(
      1.0, corrosion_ + spec_.corrosion_rate * moisture_ * pitting * dt.value());
}

Ohms Package::insulation_resistance() const {
  // Wet insulation collapses exponentially with moisture: GΩ dry, ~100 kΩ
  // soaked.
  const double decades = 4.7 * moisture_;
  return Ohms{spec_.dry_insulation.value() * std::pow(10.0, -decades)};
}

Amperes Package::leakage_current(Volts supply) const {
  return Amperes{supply.value() / insulation_resistance().value()};
}

Ohms Package::contact_resistance() const {
  // Pristine crimp ~10 mΩ; corrosion grows an oxide film worth up to ~20 Ω.
  return Ohms{0.01 + 20.0 * corrosion_ * corrosion_};
}

bool Package::healthy() const {
  return corrosion_ < 0.5 && insulation_resistance().value() > 1e6;
}

double Package::added_turbulence(MetresPerSecond speed) const {
  // The smoothed head sheds weak vortices; intensity scales with speed but
  // saturates (fully turbulent wake).
  const double v = std::abs(speed.value());
  return spec_.intrusiveness * (1.0 - std::exp(-v / 0.5));
}

}  // namespace aqua::maf
