// dac_ctrl.hpp — DAC controller IP. The ISIF digital section exposes "6 DAC
// controllers" that move words from the control loop to the thermometer DACs;
// this model adds the register interface and an optional slew limit (codes
// per update) that the hardware uses to keep the bridge supply glitch-free.
#pragma once

#include "analog/dac.hpp"
#include "state/serial.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace aqua::isif {

class DacController {
 public:
  DacController(const analog::ThermometerDacSpec& spec, util::Rng rng,
                int max_step_codes = 0);  ///< 0 = unlimited slew

  /// Requests a target code; the controller slews toward it on update().
  void request_code(int code);
  void request_voltage(util::Volts v);

  /// One control-rate update (applies slew limiting), then `dt` of analog
  /// settling; returns the DAC output voltage.
  util::Volts update(util::Seconds dt) {
    return update_with_decay(settling_decay(dt));
  }
  /// The DAC output's settling factor for an update of dt.
  [[nodiscard]] double settling_decay(util::Seconds dt) const {
    return dac_.settling_decay(dt);
  }
  /// update(dt) with `decay` == settling_decay(dt) supplied, for a caller
  /// that updates with one dt many times.
  util::Volts update_with_decay(double decay);

  /// Post-construction state: target 0 and the DAC's own reset. A supply
  /// droop (environmental, see set_supply_droop) is not cleared — a chip
  /// reset does not restore a browned-out rail.
  void reset();

  /// Fault-injection port (src/fault): scales the analog output rail by
  /// `factor` in (0, 1] — a supply brownout. 1.0 restores the nominal rail;
  /// at 1.0 the output path executes no extra floating-point operation, so a
  /// compiled-in-but-inactive brownout cannot perturb the bitstream.
  void set_supply_droop(double factor);
  [[nodiscard]] double supply_droop() const { return droop_; }

  [[nodiscard]] int current_code() const { return dac_.code(); }
  [[nodiscard]] int target_code() const { return target_; }
  [[nodiscard]] const analog::ThermometerDac& dac() const { return dac_; }

  /// Checkpoint support: DAC state, slew target and supply droop (the droop
  /// survives reset, so it must survive a crash too).
  void save_state(state::Writer& w) const {
    dac_.save_state(w);
    w.i32(target_);
    w.f64(droop_);
  }
  void load_state(state::Reader& r) {
    dac_.load_state(r);
    target_ = r.i32();
    droop_ = r.f64();
  }

 private:
  analog::ThermometerDac dac_;
  int target_ = 0;
  int max_step_;
  double droop_ = 1.0;
};

}  // namespace aqua::isif
