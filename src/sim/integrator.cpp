#include "sim/integrator.hpp"

#include <cmath>
#include <stdexcept>

namespace aqua::sim {

using util::Seconds;

FirstOrderLag::FirstOrderLag(double initial, Seconds tau)
    : y_(initial), tau_(tau.value()) {
  if (tau_ < 0.0) throw std::invalid_argument("FirstOrderLag: negative tau");
}

double FirstOrderLag::step(double target, Seconds dt) {
  if (tau_ <= 0.0) {
    y_ = target;
  } else {
    const double a = std::exp(-dt.value() / tau_);
    y_ = target + (y_ - target) * a;
  }
  return y_;
}

double FirstOrderLag::decay(Seconds dt) const {
  return tau_ <= 0.0 ? 0.0 : std::exp(-dt.value() / tau_);
}

void FirstOrderLag::set_tau(Seconds tau) {
  if (tau.value() < 0.0) throw std::invalid_argument("FirstOrderLag: negative tau");
  tau_ = tau.value();
}

}  // namespace aqua::sim
