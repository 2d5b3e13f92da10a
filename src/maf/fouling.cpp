#include "maf/fouling.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace aqua::maf {

using util::Kelvin;
using util::Seconds;
using util::SquareMetres;

namespace {
/// How far below the saturation temperature a clean wall must be for step()
/// to skip its deposit rate. It moves the solubility by ~2e-8 relative,
/// about 1e8 times the rounding of either evaluation.
constexpr double kSaturationMargin = 1e-6;  // K
}  // namespace

FoulingDrive fouling_drive(const Environment& env) {
  const double scaling = phys::scaling_drive(env.chemistry);
  return FoulingDrive{
      phys::bubble_onset_overtemperature(env.fluid_temperature, env.pressure,
                                         env.dissolved_gas_saturation)
          .value(),
      scaling,
      std::isfinite(scaling)
          ? phys::caco3_saturation_temperature(scaling).value() -
                kSaturationMargin
          : std::numeric_limits<double>::quiet_NaN()};
}

FoulingState::FoulingState(const FoulingParameters& params) : params_(params) {}

void FoulingState::step(Seconds dt, Kelvin wall_temperature,
                        const Environment& env, const FoulingDrive& drive) {
  const double h = dt.value();
  const double overtemp =
      wall_temperature.value() - env.fluid_temperature.value();

  // --- Bubbles: nucleate above the outgassing/boiling onset, detach with
  // shear and buoyancy. The (1 − θ) factor limits growth to bare surface.
  const double excess = std::max(0.0, overtemp - drive.bubble_onset);
  const double grow = params_.nucleation_rate * excess * (1.0 - bubble_coverage_);
  const double shed =
      (params_.detachment_rate +
       params_.shear_detachment * std::abs(env.speed.value())) *
      bubble_coverage_;
  bubble_coverage_ = std::clamp(bubble_coverage_ + h * (grow - shed), 0.0, 0.95);

  // --- CaCO3 deposit: inverse-solubility kinetics at the wall temperature.
  // A clean wall below the saturation temperature keeps its +0.0: the rate
  // there is exactly 0 and max(0, 0 + h·0) is +0.0, so the solubility is
  // not evaluated.
  const double wall = wall_temperature.value();
  if (deposit_thickness_ == 0.0 && std::isfinite(wall) &&
      wall < drive.saturation_wall)
    return;
  const double rate = phys::deposit_growth_rate(
      params_.scaling, drive.scaling_drive, wall_temperature,
      deposit_thickness_);
  deposit_thickness_ = std::max(0.0, deposit_thickness_ + h * rate);
}

double FoulingState::convection_factor() const {
  // A bubble-covered patch still conducts a little through the gas film
  // (~5 % of the liquid path).
  return 1.0 - bubble_coverage_ * 0.95;
}

double FoulingState::deposit_resistance(SquareMetres area) const {
  return phys::deposit_thermal_resistance(deposit_thickness_, area);
}

void FoulingState::clean() {
  bubble_coverage_ = 0.0;
  deposit_thickness_ = 0.0;
}

void FoulingState::set_bubble_coverage(double coverage) {
  bubble_coverage_ = std::clamp(coverage, 0.0, 0.95);
}

void FoulingState::set_deposit_thickness(double thickness_m) {
  deposit_thickness_ = std::max(0.0, thickness_m);
}

void FoulingState::load_state(state::Reader& r) {
  const double coverage = r.f64();
  const double deposit = r.f64();
  if (!(coverage >= 0.0 && coverage <= 0.95))
    throw state::Error("FoulingState: bubble coverage outside [0, 0.95]");
  if (std::signbit(deposit) || !std::isfinite(deposit))
    throw state::Error("FoulingState: negative or non-finite deposit");
  bubble_coverage_ = coverage;
  deposit_thickness_ = deposit;
}

}  // namespace aqua::maf
