#include "maf/die.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace aqua::maf {

using util::Kelvin;
using util::Ohms;
using util::Seconds;
using util::Watts;

namespace {
/// Resistance reported for a broken (open) element.
constexpr double kOpenCircuitOhms = 1e9;

/// Checkpointed nodes: heater A, heater B and the reference, then the fluid,
/// local A, local B and substrate boundaries.
constexpr std::size_t kNodeCount = 7;
constexpr std::size_t kCapacitiveNodes = 3;

/// Exponential-Euler relaxation of one capacitive node over dt, from its
/// edge sums; a node with no conductance integrates its power.
double relax(double t, double p, double capacitance, double sum_g,
             double sum_gt, double dt) {
  if (sum_g <= 0.0) return t + p * dt / capacitance;
  const double t_inf = (sum_gt + p) / sum_g;
  return t_inf + (t - t_inf) * std::exp(-dt * sum_g / capacitance);
}

/// Gauss–Seidel update of one node to the temperature its edge sums and
/// power imply, widening `max_delta` by the change.
void settle_node(double& t, double p, double sum_g, double sum_gt,
                 double& max_delta) {
  if (sum_g <= 0.0) return;
  const double t_new = (sum_gt + p) / sum_g;
  max_delta = std::max(max_delta, std::abs(t_new - t));
  t = t_new;
}
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
  if (!(spec_.heater_capacitance > 0.0) || !(spec_.reference_capacitance > 0.0))
    throw std::invalid_argument("MafDie: capacitance must be positive");
  reset_network();
  if (!(g_[kEdgeA] >= 0.0) || !(g_[kBackA] >= 0.0))
    throw std::invalid_argument("MafDie: negative membrane conductance");
}

void MafDie::reset_network() {
  const double t0 = util::celsius(15.0).value();
  t_a_ = t_b_ = t_ref_ = t0;
  t_fluid_ = t_local_a_ = t_local_b_ = t_substrate_ = t0;
  p_a_ = p_b_ = p_ref_ = 0.0;
  // In-plane coupling between the closely adjoined tandem heaters: a fraction
  // of the sheet conductance between a heater and the rim.
  const double g_edge =
      phys::edge_conductance(spec_.membrane, spec_.heater_wire.length);
  const double g_back = phys::backside_conductance(
      spec_.membrane, spec_.heater_wire.surface_area());
  g_ = {0.0, 0.0, 0.0, 0.5 * g_edge, g_edge, g_edge, g_back, g_back};
}

MafDie::EdgeSums MafDie::heater_a_sums() const {
  EdgeSums s;
  s.add(g_[kConvA], t_local_a_);
  s.add(g_[kAB], t_b_);
  s.add(g_[kEdgeA], t_substrate_);
  s.add(g_[kBackA], t_substrate_);
  return s;
}

MafDie::EdgeSums MafDie::heater_b_sums() const {
  EdgeSums s;
  s.add(g_[kConvB], t_local_b_);
  s.add(g_[kAB], t_a_);
  s.add(g_[kEdgeB], t_substrate_);
  s.add(g_[kBackB], t_substrate_);
  return s;
}

MafDie::EdgeSums MafDie::reference_sums() const {
  EdgeSums s;
  s.add(g_[kConvRef], t_fluid_);
  return s;
}

Ohms MafDie::heater_a_resistance() const {
  if (!membrane_intact_) return Ohms{kOpenCircuitOhms};
  return heater_a_.resistance(Kelvin{t_a_});
}

Ohms MafDie::heater_b_resistance() const {
  if (!membrane_intact_) return Ohms{kOpenCircuitOhms};
  return heater_b_.resistance(Kelvin{t_b_});
}

Ohms MafDie::reference_resistance() const {
  return reference_.resistance(Kelvin{t_ref_});
}

Ohms MafDie::heater_a_resistance_at(Kelvin t) const {
  return heater_a_.resistance(t);
}

Ohms MafDie::reference_resistance_at(Kelvin t) const {
  return reference_.resistance(t);
}

void MafDie::set_heater_powers(Watts heater_a, Watts heater_b, Watts reference) {
  p_a_ = membrane_intact_ ? heater_a.value() : 0.0;
  p_b_ = membrane_intact_ ? heater_b.value() : 0.0;
  p_ref_ = reference.value();
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

double MafDie::wake_coupling(const Environment& env) const {
  return spec_.wake_coupling_max *
         (1.0 - std::exp(-std::abs(env.speed.value()) /
                         spec_.wake_velocity_scale.value()));
}

void MafDie::update_conductances(const Environment& env, double coupling) {
  const Kelvin t_a{t_a_};
  const Kelvin t_b{t_b_};
  const Kelvin t_ref{t_ref_};
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
  g_[kConvA] = effective_g(t_a, fouling_a_);
  g_[kConvB] = effective_g(t_b, fouling_b_);

  // Reference meander: same physics, its own geometry, no fouling dependence
  // (it runs essentially at fluid temperature, so it neither bubbles nor
  // scales preferentially).
  {
    const Kelvin film =
        clamped_film(env.medium, t_ref, env.fluid_temperature);
    const auto props = phys::properties(env.medium, film, env.pressure);
    const double h =
        phys::film_coefficient(props, env.speed, spec_.reference_wire);
    g_[kConvRef] = h * spec_.reference_wire.surface_area().value();
  }

  // Boundary temperatures: bulk fluid everywhere, with the downstream
  // heater's local fluid warmed by the upstream wake.
  const double v = env.speed.value();
  double t_local_a = t_f, t_local_b = t_f;
  if (v > 0.0) {
    t_local_b = t_f + coupling * (t_a.value() - t_f);
  } else if (v < 0.0) {
    t_local_a = t_f + coupling * (t_b.value() - t_f);
  }
  t_fluid_ = t_f;
  t_local_a_ = t_local_a;
  t_local_b_ = t_local_b;
  t_substrate_ = t_f;
}

MafDie::StepTerms MafDie::step_terms(const Environment& env) const {
  StepTerms terms;
  terms.membrane_survives = phys::survives(spec_.membrane, env.pressure);
  terms.wake_coupling = wake_coupling(env);
  if (env.medium == phys::Medium::kWater) terms.fouling = fouling_drive(env);
  return terms;
}

void MafDie::step(Seconds dt, const Environment& env, const StepTerms& terms) {
  // Latched here, after the caller's set_heater_powers, never when the terms
  // are computed: on the first step at an overpressure the bridge has
  // already read intact heaters and injected their powers.
  if (!terms.membrane_survives) membrane_intact_ = false;
  update_conductances(env, terms.wake_coupling);
  // Jacobi: every node relaxes against the start-of-step temperatures.
  const EdgeSums a = heater_a_sums();
  const EdgeSums b = heater_b_sums();
  const EdgeSums ref = reference_sums();
  const double h = dt.value();
  t_a_ = relax(t_a_, p_a_, spec_.heater_capacitance, a.g, a.gt, h);
  t_b_ = relax(t_b_, p_b_, spec_.heater_capacitance, b.g, b.gt, h);
  t_ref_ = relax(t_ref_, p_ref_, spec_.reference_capacitance, ref.g, ref.gt, h);
  if (env.medium == phys::Medium::kWater) {
    fouling_a_.step(dt, Kelvin{t_a_}, env, terms.fouling);
    fouling_b_.step(dt, Kelvin{t_b_}, env, terms.fouling);
  }
}

void MafDie::settle(const Environment& env) {
  // Conductances depend on the (unknown) wall temperatures; a few outer
  // fixed-point sweeps over update→relax converge quickly. Each relaxation
  // is Gauss–Seidel in place on the three nodes, which are diagonally
  // dominant.
  const double coupling = wake_coupling(env);
  for (int i = 0; i < 8; ++i) {
    update_conductances(env, coupling);
    for (int sweep = 0; sweep < 500; ++sweep) {
      double max_delta = 0.0;
      const EdgeSums a = heater_a_sums();
      settle_node(t_a_, p_a_, a.g, a.gt, max_delta);
      const EdgeSums b = heater_b_sums();  // sees the updated heater A
      settle_node(t_b_, p_b_, b.g, b.gt, max_delta);
      const EdgeSums ref = reference_sums();
      settle_node(t_ref_, p_ref_, ref.g, ref.gt, max_delta);
      if (max_delta < 1e-9) break;
    }
  }
}

void MafDie::reset() {
  reset_network();
  fouling_a_.clean();
  fouling_b_.clean();
  membrane_intact_ = true;
}

DieTemperatures MafDie::temperatures() const {
  return DieTemperatures{Kelvin{t_a_}, Kelvin{t_b_}, Kelvin{t_ref_}};
}

void MafDie::save_state(state::Writer& w) const {
  fouling_a_.save_state(w);
  fouling_b_.save_state(w);
  const double temps[kNodeCount] = {t_a_,     t_b_,       t_ref_,     t_fluid_,
                                    t_local_a_, t_local_b_, t_substrate_};
  const double powers[kNodeCount] = {p_a_, p_b_, p_ref_};  // boundaries: 0
  w.size(kNodeCount);
  for (std::size_t n = 0; n < kNodeCount; ++n) {
    w.f64(temps[n]);
    w.f64(powers[n]);
  }
  w.size(g_.size());
  for (const double g : g_) w.f64(g);
  w.boolean(membrane_intact_);
}

void MafDie::load_state(state::Reader& r) {
  fouling_a_.load_state(r);
  fouling_b_.load_state(r);
  if (r.size(16) != kNodeCount)
    throw state::Error("MafDie: node count mismatch");
  double temps[kNodeCount], powers[kNodeCount];
  for (std::size_t n = 0; n < kNodeCount; ++n) {
    temps[n] = r.f64();
    powers[n] = r.f64();
    if (!std::isfinite(temps[n]) || !std::isfinite(powers[n]))
      throw state::Error("MafDie: non-finite temperature or power");
    if (n >= kCapacitiveNodes && powers[n] != 0.0)
      throw state::Error("MafDie: power on a boundary node");
  }
  if (r.size(8) != g_.size())
    throw state::Error("MafDie: edge count mismatch");
  std::array<double, kEdgeCount> g;
  for (double& v : g) {
    v = r.f64();
    if (!(std::isfinite(v) && v >= 0.0))
      throw state::Error("MafDie: negative or non-finite conductance");
  }
  t_a_ = temps[0];
  t_b_ = temps[1];
  t_ref_ = temps[2];
  t_fluid_ = temps[3];
  t_local_a_ = temps[4];
  t_local_b_ = temps[5];
  t_substrate_ = temps[6];
  p_a_ = powers[0];
  p_b_ = powers[1];
  p_ref_ = powers[2];
  g_ = g;
  membrane_intact_ = r.boolean();
}

}  // namespace aqua::maf
