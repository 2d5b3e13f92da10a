// integrator.hpp — explicit fixed-step ODE integration for the non-stiff
// mechanical models (turbine rotor, valve/pump actuators). The stiff thermal
// side, the MAF die, steps its own exponential-Euler network instead.
#pragma once

#include <functional>
#include <span>

#include "util/units.hpp"

namespace aqua::sim {

/// dy/dt = f(t, y) with y and the derivative as spans of equal length.
using OdeRhs =
    std::function<void(double t, std::span<const double> y, std::span<double> dydt)>;

/// One classic RK4 step of size dt, in place.
void rk4_step(const OdeRhs& f, double t, util::Seconds dt, std::span<double> y);

/// One forward-Euler step (for cheap, heavily-oversampled loops).
void euler_step(const OdeRhs& f, double t, util::Seconds dt, std::span<double> y);

/// First-order lag (one-pole) tracker: analytic step of
/// dy/dt = (target − y)/tau. Robust for any dt/tau ratio; the workhorse for
/// actuators, amplifier bandwidth and DAC settling.
class FirstOrderLag {
 public:
  FirstOrderLag(double initial, util::Seconds tau);

  double step(double target, util::Seconds dt);

  /// The per-step decay factor exp(−dt/τ) that step() applies for this dt
  /// (0 when τ ≤ 0, i.e. the lag tracks instantly). Block kernels hoist this
  /// out of the per-sample loop: one exp per block instead of one per
  /// sample, with the identical factor, so y = t + (y − t)·decay(dt) is
  /// bit-identical to step(t, dt).
  [[nodiscard]] double decay(util::Seconds dt) const;

  /// step(target, dt) with its factor a == decay(dt) supplied; a ≤ 0 lands
  /// exactly on the target.
  double step_with_decay(double target, double a) {
    y_ = (a <= 0.0) ? target : target + (y_ - target) * a;
    return y_;
  }

  [[nodiscard]] double value() const { return y_; }
  void reset(double value) { y_ = value; }
  void set_tau(util::Seconds tau);

 private:
  double y_;
  double tau_;
};

}  // namespace aqua::sim
