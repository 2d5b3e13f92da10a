// die.hpp — electro-thermal model of the Fraunhofer-ISIT MAF die (paper §2,
// Figs. 1–2): two Ti/TiN heater wires (Rh = 50.0 ± 0.5 Ω) in tandem and an
// interdigitated reference resistor (Rt = 2000 ± 30 Ω) on a 2 µm
// SiN/SiO2/SiN membrane over a KOH-etched, organic-filled cavity.
//
// Thermal topology (lumped):
//
//   heater A ── G_conv(v, fouling) ── local fluid A (wake-adjusted boundary)
//   heater B ── G_conv(v, fouling) ── local fluid B
//   heater A ── G_membrane ── heater B           (in-plane coupling)
//   heater A/B ── G_edge ── substrate boundary   (chip rim at fluid temp)
//   heater A/B ── G_backside ── substrate        (organic fill path)
//   reference ── G_ref ── fluid boundary         (tracks ambient, self-heats)
//
// Directionality: the downstream heater sits in the upstream heater's thermal
// wake, so its local fluid boundary is warmed by a velocity-dependent coupling
// coefficient. The sign of the resulting power/temperature imbalance is the
// paper's direction measurement.
//
// The die is purely electro-thermal: the conditioning electronics (core/)
// solves the bridge, injects the resulting Joule powers via set_heater_powers,
// and reads back the temperature-dependent resistances.
//
// The network is stiff (a heater's time constant is ~0.2 ms, experiments run
// for minutes), so each step relaxes every capacitive node analytically
// toward the temperature its neighbours and power imply:
//
//   T⁺ = T∞ + (T − T∞)·exp(−dt·ΣG/C),  T∞ = (Σ G_i·T_i + P) / ΣG
//
// which is unconditionally stable and exact for a node with frozen
// neighbours. The film conductances follow the flow, the wall temperatures
// and the fouling at every step.
#pragma once

#include <array>
#include <cstddef>

#include "maf/environment.hpp"
#include "maf/fouling.hpp"
#include "phys/convection.hpp"
#include "phys/membrane.hpp"
#include "phys/resistor.hpp"
#include "state/serial.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace aqua::maf {

struct MafSpec {
  /// Heater element (paper: 50.0 ± 0.5 Ω). Ti film TCR ≈ 3.3e-3 /K.
  phys::TcrResistorSpec heater{util::ohms(50.0), util::ohms(0.5),
                               util::celsius(20.0), 3.3e-3, 0.0};
  /// Ambient reference (paper: 2000 ± 30 Ω), same film, interdigitated.
  phys::TcrResistorSpec reference{util::ohms(2000.0), util::ohms(30.0),
                                  util::celsius(20.0), 3.3e-3, 0.0};
  /// Effective convective geometry of one heater wire. Water's film
  /// coefficients are enormous; the element must be tiny (and the
  /// overtemperature low) to stay inside the DAC's drive range — the same
  /// power constraint the paper works around with "reduced overtemperature".
  phys::WireGeometry heater_wire{util::micrometres(4.0), util::micrometres(300.0)};
  /// Effective convective geometry of the reference meander (larger, cooler).
  phys::WireGeometry reference_wire{util::micrometres(10.0), util::millimetres(4.0)};
  phys::MembraneSpec membrane{};
  double heater_capacitance = 7.0e-8;     ///< J/K incl. local membrane mass
  double reference_capacitance = 1.0e-6;  ///< J/K
  /// Tandem wake coupling: fraction of the upstream overtemperature seen by
  /// the downstream element's local fluid, and its velocity scale.
  double wake_coupling_max = 0.25;
  util::MetresPerSecond wake_velocity_scale = util::metres_per_second(0.10);
  FoulingParameters fouling{};
};

/// Snapshot of die temperatures for diagnostics and tests.
struct DieTemperatures {
  util::Kelvin heater_a;
  util::Kelvin heater_b;
  util::Kelvin reference;
};

class MafDie {
 public:
  /// Draws manufacturing tolerances from `rng` (heater/reference R0 spread).
  MafDie(const MafSpec& spec, util::Rng& rng);

  /// Exact-nominal die (tests that need closed-form expectations).
  explicit MafDie(const MafSpec& spec);

  // --- electrical interface -------------------------------------------------
  [[nodiscard]] util::Ohms heater_a_resistance() const;
  [[nodiscard]] util::Ohms heater_b_resistance() const;
  [[nodiscard]] util::Ohms reference_resistance() const;

  /// Element resistance at a prescribed temperature — what a factory trim
  /// station measures when picking the balancing bridge resistor.
  [[nodiscard]] util::Ohms heater_a_resistance_at(util::Kelvin t) const;
  [[nodiscard]] util::Ohms reference_resistance_at(util::Kelvin t) const;

  /// Joule powers computed by the bridge solver for the current tick.
  void set_heater_powers(util::Watts heater_a, util::Watts heater_b,
                         util::Watts reference);

  // --- thermal dynamics ------------------------------------------------------
  /// The terms of step() that depend only on the environment and part
  /// constants. Values, not state: a caller that steps one environment many
  /// times computes them once (CtaAnemometer::tick_frame, DESIGN.md §9).
  struct StepTerms {
    /// phys::survives at the environment's pressure. step() latches the
    /// membrane broken when this is false.
    bool membrane_survives = true;
    /// Fraction of the upstream heater's overtemperature that warms the
    /// downstream heater's local fluid.
    double wake_coupling = 0.0;
    /// Shared by both heaters; computed for water only.
    FoulingDrive fouling{};
  };
  [[nodiscard]] StepTerms step_terms(const Environment& env) const;

  /// Advances the thermal and fouling state by dt under `env`.
  void step(util::Seconds dt, const Environment& env) {
    step(dt, env, step_terms(env));
  }
  /// The same step with `terms` == step_terms(env) supplied.
  void step(util::Seconds dt, const Environment& env, const StepTerms& terms);

  /// Relaxes the thermal state to steady state under constant powers/env
  /// (fouling state is left untouched). Used by the quasi-static solver.
  void settle(const Environment& env);

  /// As-built die again: thermal network at its initial temperatures, clean
  /// surfaces, membrane intact. The manufacturing-tolerance draws (element R0
  /// spread) are part properties and persist.
  void reset();

  [[nodiscard]] DieTemperatures temperatures() const;
  [[nodiscard]] const FoulingState& fouling_a() const { return fouling_a_; }
  [[nodiscard]] const FoulingState& fouling_b() const { return fouling_b_; }
  FoulingState& fouling_a() { return fouling_a_; }
  FoulingState& fouling_b() { return fouling_b_; }

  /// False once an overpressure event has broken the membrane (latched); the
  /// heaters then read open (very large resistance).
  [[nodiscard]] bool membrane_intact() const { return membrane_intact_; }

  /// Fault-injection port (src/fault): ruptures the membrane as a water-hammer
  /// overpressure spike would — latched exactly like the physical path through
  /// step(); only reset() (a new die) restores it.
  void damage_membrane() { membrane_intact_ = false; }

  /// Convective film conductance heater→fluid (W/K) at the given conditions
  /// for a clean surface — exposed for calibration sanity checks.
  [[nodiscard]] double clean_film_conductance(const Environment& env,
                                              util::Kelvin wall) const;

  [[nodiscard]] const MafSpec& spec() const { return spec_; }

  /// Checkpoint support: fouling surfaces, thermal state and the latched
  /// membrane flag. The thermal state is 7 nodes as (temperature, power) —
  /// heater A, heater B, reference, then the fluid, local A, local B and
  /// substrate boundaries with zero power — and the 8 edge conductances in
  /// Edge order. The R0 tolerance draws are part properties, reproduced by
  /// reconstruction. load_state refuses values a running die cannot hold: a
  /// non-finite temperature, power or conductance, a negative conductance or
  /// a non-zero boundary power.
  void save_state(state::Writer& w) const;
  void load_state(state::Reader& r);

 private:
  /// The network's edges, in the order their conductances are checkpointed
  /// and summed: each heater's film, the reference's film, the in-plane A–B
  /// coupling, each heater's rim edge and each heater's backside path.
  enum Edge : std::size_t {
    kConvA, kConvB, kConvRef, kAB, kEdgeA, kEdgeB, kBackA, kBackB, kEdgeCount
  };
  /// Σg and Σg·T over one node's edges, added from 0.0 in increasing edge id.
  struct EdgeSums {
    double g = 0.0;
    double gt = 0.0;
    void add(double g_edge, double t_other) {
      g += g_edge;
      gt += g_edge * t_other;
    }
  };

  /// Checks the spec's capacitances and membrane conductances, then resets.
  void build_network();
  /// As-built thermal state: 15 °C everywhere, no power, zero film
  /// conductances and the membrane's fixed ones.
  void reset_network();
  [[nodiscard]] EdgeSums heater_a_sums() const;
  [[nodiscard]] EdgeSums heater_b_sums() const;
  [[nodiscard]] EdgeSums reference_sums() const;
  [[nodiscard]] double wake_coupling(const Environment& env) const;
  void update_conductances(const Environment& env, double wake_coupling);

  MafSpec spec_;
  phys::TcrResistor heater_a_;
  phys::TcrResistor heater_b_;
  phys::TcrResistor reference_;
  FoulingState fouling_a_;
  FoulingState fouling_b_;

  // Capacitive nodes (K, W).
  double t_a_ = 0.0, t_b_ = 0.0, t_ref_ = 0.0;
  double p_a_ = 0.0, p_b_ = 0.0, p_ref_ = 0.0;
  // Boundary temperatures (K): bulk fluid, each heater's local fluid (the
  // downstream one warmed by the wake) and the substrate.
  double t_fluid_ = 0.0, t_local_a_ = 0.0, t_local_b_ = 0.0, t_substrate_ = 0.0;
  std::array<double, kEdgeCount> g_{};  // W/K

  bool membrane_intact_ = true;
};

}  // namespace aqua::maf
