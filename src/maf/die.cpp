#include "maf/die.hpp"

#include <algorithm>
#include <cmath>

namespace aqua::maf {

using util::Kelvin;
using util::Ohms;
using util::Seconds;
using util::Watts;

namespace {
/// Resistance reported for a broken (open) element.
constexpr double kOpenCircuitOhms = 1e9;
}  // namespace

MafDie::MafDie(const MafSpec& spec, util::Rng& rng)
    : spec_(spec),
      heater_a_(spec.heater, rng),
      heater_b_(spec.heater, rng),
      reference_(spec.reference, rng),
      fouling_a_(spec.fouling),
      fouling_b_(spec.fouling) {
  build_network();
}

MafDie::MafDie(const MafSpec& spec)
    : spec_(spec),
      heater_a_(spec.heater),
      heater_b_(spec.heater),
      reference_(spec.reference),
      fouling_a_(spec.fouling),
      fouling_b_(spec.fouling) {
  build_network();
}

void MafDie::build_network() {
  const Kelvin t0 = util::celsius(15.0);
  n_heater_a_ = net_.add_node(spec_.heater_capacitance, t0);
  n_heater_b_ = net_.add_node(spec_.heater_capacitance, t0);
  n_reference_ = net_.add_node(spec_.reference_capacitance, t0);
  n_fluid_ = net_.add_boundary(t0);
  n_local_a_ = net_.add_boundary(t0);
  n_local_b_ = net_.add_boundary(t0);
  n_substrate_ = net_.add_boundary(t0);

  e_conv_a_ = net_.connect(n_heater_a_, n_local_a_, 0.0);
  e_conv_b_ = net_.connect(n_heater_b_, n_local_b_, 0.0);
  e_conv_ref_ = net_.connect(n_reference_, n_fluid_, 0.0);

  // In-plane coupling between the closely adjoined tandem heaters: a fraction
  // of the sheet conductance between a heater and the rim.
  const double g_edge =
      phys::edge_conductance(spec_.membrane, spec_.heater_wire.length);
  e_ab_ = net_.connect(n_heater_a_, n_heater_b_, 0.5 * g_edge);
  e_edge_a_ = net_.connect(n_heater_a_, n_substrate_, g_edge);
  e_edge_b_ = net_.connect(n_heater_b_, n_substrate_, g_edge);

  const double g_back = phys::backside_conductance(
      spec_.membrane, spec_.heater_wire.surface_area());
  e_back_a_ = net_.connect(n_heater_a_, n_substrate_, g_back);
  e_back_b_ = net_.connect(n_heater_b_, n_substrate_, g_back);
}

Ohms MafDie::heater_a_resistance() const {
  if (!membrane_intact_) return Ohms{kOpenCircuitOhms};
  return heater_a_.resistance(net_.temperature(n_heater_a_));
}

Ohms MafDie::heater_b_resistance() const {
  if (!membrane_intact_) return Ohms{kOpenCircuitOhms};
  return heater_b_.resistance(net_.temperature(n_heater_b_));
}

Ohms MafDie::reference_resistance() const {
  return reference_.resistance(net_.temperature(n_reference_));
}

Ohms MafDie::heater_a_resistance_at(Kelvin t) const {
  return heater_a_.resistance(t);
}

Ohms MafDie::reference_resistance_at(Kelvin t) const {
  return reference_.resistance(t);
}

void MafDie::set_heater_powers(Watts heater_a, Watts heater_b, Watts reference) {
  net_.set_power(n_heater_a_, membrane_intact_ ? heater_a : util::watts(0.0));
  net_.set_power(n_heater_b_, membrane_intact_ ? heater_b : util::watts(0.0));
  net_.set_power(n_reference_, reference);
}

namespace {
/// Film temperature clamped to the property-fit range: transient solver
/// iterates (e.g. the quasi-static bisection probing a too-high supply) can
/// push the wall far beyond boiling; property evaluation saturates there.
Kelvin clamped_film(phys::Medium medium, Kelvin wall, Kelvin fluid) {
  const double film = 0.5 * (wall.value() + fluid.value());
  const double lo = medium == phys::Medium::kWater ? 273.65 : 210.0;
  const double hi = medium == phys::Medium::kWater ? 390.0 : 480.0;
  return Kelvin{std::clamp(film, lo, hi)};
}
}  // namespace

double MafDie::clean_film_conductance(const Environment& env,
                                      Kelvin wall) const {
  // Properties at the film temperature, per standard hot-wire practice.
  const Kelvin film =
      clamped_film(env.medium, wall, env.fluid_temperature);
  const auto props = phys::properties(env.medium, film, env.pressure);
  const double h = phys::film_coefficient(props, env.speed, spec_.heater_wire);
  return h * spec_.heater_wire.surface_area().value();
}

void MafDie::update_conductances(const Environment& env) {
  const Kelvin t_a = net_.temperature(n_heater_a_);
  const Kelvin t_b = net_.temperature(n_heater_b_);
  const Kelvin t_ref = net_.temperature(n_reference_);
  const double t_f = env.fluid_temperature.value();

  // Heater→fluid conductance, degraded by bubbles (parallel-area blanking)
  // and by the deposit layer (series resistance).
  const auto effective_g = [&](Kelvin wall, const FoulingState& fouling) {
    const double g_clean = clean_film_conductance(env, wall);
    const double g_conv = g_clean * fouling.convection_factor();
    const double r_dep =
        fouling.deposit_resistance(spec_.heater_wire.surface_area());
    return g_conv > 0.0 ? 1.0 / (1.0 / g_conv + r_dep) : 0.0;
  };
  net_.set_conductance(e_conv_a_, effective_g(t_a, fouling_a_));
  net_.set_conductance(e_conv_b_, effective_g(t_b, fouling_b_));

  // Reference meander: same physics, its own geometry, no fouling dependence
  // (it runs essentially at fluid temperature, so it neither bubbles nor
  // scales preferentially).
  {
    const Kelvin film =
        clamped_film(env.medium, t_ref, env.fluid_temperature);
    const auto props = phys::properties(env.medium, film, env.pressure);
    const double h =
        phys::film_coefficient(props, env.speed, spec_.reference_wire);
    net_.set_conductance(e_conv_ref_,
                         h * spec_.reference_wire.surface_area().value());
  }

  // Boundary temperatures: bulk fluid everywhere, with the downstream
  // heater's local fluid warmed by the upstream wake.
  const double v = env.speed.value();
  const double coupling =
      spec_.wake_coupling_max *
      (1.0 - std::exp(-std::abs(v) / spec_.wake_velocity_scale.value()));
  double t_local_a = t_f, t_local_b = t_f;
  if (v > 0.0) {
    t_local_b = t_f + coupling * (t_a.value() - t_f);
  } else if (v < 0.0) {
    t_local_a = t_f + coupling * (t_b.value() - t_f);
  }
  net_.set_boundary_temperature(n_fluid_, env.fluid_temperature);
  net_.set_boundary_temperature(n_local_a_, Kelvin{t_local_a});
  net_.set_boundary_temperature(n_local_b_, Kelvin{t_local_b});
  net_.set_boundary_temperature(n_substrate_, env.fluid_temperature);
}

void MafDie::step(Seconds dt, const Environment& env) {
  if (!phys::survives(spec_.membrane, env.pressure)) membrane_intact_ = false;
  update_conductances(env);
  net_.step(dt);
  if (env.medium == phys::Medium::kWater) {
    fouling_a_.step(dt, net_.temperature(n_heater_a_), env);
    fouling_b_.step(dt, net_.temperature(n_heater_b_), env);
  }
}

void MafDie::settle(const Environment& env) {
  // Conductances depend on the (unknown) wall temperatures; a few outer
  // fixed-point sweeps over update→settle converge quickly.
  for (int i = 0; i < 8; ++i) {
    update_conductances(env);
    net_.settle();
  }
}

void MafDie::reset() {
  net_.reset();
  fouling_a_.clean();
  fouling_b_.clean();
  membrane_intact_ = true;
}

DieTemperatures MafDie::temperatures() const {
  return DieTemperatures{net_.temperature(n_heater_a_),
                         net_.temperature(n_heater_b_),
                         net_.temperature(n_reference_)};
}

}  // namespace aqua::maf
