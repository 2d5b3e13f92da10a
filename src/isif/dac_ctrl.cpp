#include "isif/dac_ctrl.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace aqua::isif {

using util::Volts;

DacController::DacController(const analog::ThermometerDacSpec& spec,
                             util::Rng rng, int max_step_codes)
    : dac_(spec, rng), max_step_(max_step_codes) {
  if (max_step_codes < 0)
    throw std::invalid_argument("DacController: negative slew limit");
}

void DacController::request_code(int code) {
  target_ = std::clamp(code, 0, dac_.max_code());
}

void DacController::request_voltage(Volts v) {
  const double frac = v.value() / dac_.ideal_output(dac_.max_code()).value();
  request_code(static_cast<int>(std::lround(frac * dac_.max_code())));
}

void DacController::reset() {
  target_ = 0;
  dac_.reset();
}

void DacController::set_supply_droop(double factor) {
  if (factor <= 0.0 || factor > 1.0)
    throw std::invalid_argument("DacController: supply droop outside (0,1]");
  droop_ = factor;
}

Volts DacController::update_with_decay(double decay) {
  int next = target_;
  if (max_step_ > 0) {
    const int delta = std::clamp(target_ - dac_.code(), -max_step_, max_step_);
    next = dac_.code() + delta;
  }
  dac_.write_code(next);
  const Volts out = dac_.step_with_decay(decay);
  if (droop_ != 1.0) return Volts{out.value() * droop_};
  return out;
}

}  // namespace aqua::isif
