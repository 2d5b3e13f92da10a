// cta.hpp — the constant-temperature anemometer loop on the ISIF platform:
// the paper's complete conditioning chain (paper §4, Fig. 5):
//
//   MAF bridges ── instrument amp ── anti-alias LPF ── ΣΔ ADC ── CIC
//        ▲                                                       │
//        │                                              reference subtraction
//   12-bit thermometer DAC ◄── PI controller (software IP) ◄─────┘
//
// The PI output is the bridge supply voltage and "is proportional to the
// water flow" through King's law; an IIR output filter "down to the bandwidth
// of 0.1 Hz" raises the resolution. A second, identically-driven bridge with
// the tandem heater gives the flow-direction signal. Pulsed-voltage drive
// (the paper's anti-bubble measure) gates the loop with a duty cycle.
#pragma once

#include <optional>
#include <vector>

#include "dsp/biquad.hpp"
#include "isif/ip.hpp"
#include "isif/platform.hpp"
#include "maf/die.hpp"
#include "maf/package.hpp"
#include "obs/flight.hpp"
#include "state/serial.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace aqua::cta {

struct PulsedDriveConfig {
  bool enabled = false;
  util::Seconds period = util::Seconds{0.05};
  double duty = 0.5;          ///< fraction of the period the bridge is driven
  double keep_alive = 0.02;   ///< DAC fraction held during the off phase
};

struct CtaConfig {
  /// Heater overtemperature setpoint above ambient ("reduced overtemperature
  /// ... respect to water", paper §4).
  util::Kelvin overtemperature = util::kelvin(5.0);
  /// Fixed top resistor of the reference arm (board component).
  util::Ohms top_resistor_b = util::ohms(2000.0);
  /// Water temperature assumed when the balancing top resistor is picked at
  /// commissioning; the bridge then tracks ambient via Rt.
  util::Kelvin commissioning_temperature = util::celsius(15.0);
  /// Factory trim: pick the balancing top resistor from the *measured*
  /// element values (trim station), so the overtemperature setpoint is met
  /// despite the ±0.5 Ω / ±30 Ω die tolerances. Without trim those tolerances
  /// turn into several kelvin of overtemperature error.
  bool factory_trim = true;
  dsp::PidGains pi{0.6, 30.0, 0.0};
  /// Keep-alive floor so the loop can bootstrap: the floor supply must
  /// produce a bridge error that dominates the amplifier's residual offset,
  /// otherwise a bad offset draw parks the loop at the rail.
  double pi_min = 0.05;
  double pi_max = 1.0;
  isif::IpImpl pi_impl = isif::IpImpl::kSoftwareFloat;
  PulsedDriveConfig pulse{};
  /// Output IIR: order-2 Butterworth at `output_cutoff`, running as a
  /// firmware task every `output_divisor` control ticks.
  util::Hertz output_cutoff = util::hertz(0.1);
  int output_divisor = 200;
  /// Direction low-pass (on the control-rate tandem-bridge signal). The
  /// direction carries no bandwidth requirement, and turbulence at high flow
  /// puts ~1 Hz noise on the tandem imbalance, so it is filtered hard.
  util::Hertz direction_cutoff = util::hertz(0.1);
  /// Direction dead-band on the *ratiometric* signal (bridge-B imbalance
  /// divided by the supply). The tandem-bridge static mismatch scales with
  /// the supply, so the firmware works with err_B/U and nulls that ratio at
  /// commissioning; the wake signal is ~1e-3 at full coupling.
  double direction_deadband = 2e-4;
  /// Bridge-supply DAC full scale. The water CTA's supply spans ~0.6–1.7 V
  /// over 0–250 cm/s at ΔT = 5 K; 4 V keeps headroom while using the 12-bit
  /// range well.
  util::Volts dac_full_scale = util::volts(4.0);
};

/// Health/diagnostic summary of the running loop.
struct CtaStatus {
  bool membrane_intact;
  bool package_healthy;
  bool adc_overload;
  bool watchdog_tripped;
  double cpu_load;
};

class CtaAnemometer {
 public:
  CtaAnemometer(const maf::MafSpec& maf_spec, const isif::IsifConfig& isif_config,
                const CtaConfig& config, util::Rng rng);

  // The firmware tasks capture `this`; the object must stay put.
  CtaAnemometer(const CtaAnemometer&) = delete;
  CtaAnemometer& operator=(const CtaAnemometer&) = delete;

  /// One modulator-clock tick under the given environment.
  void tick(const maf::Environment& env);

  /// Block execution: advances one full decimation frame (`decimation`
  /// modulator ticks) under a constant environment. The plant's
  /// environment-only terms are computed once for the frame; the per-tick
  /// physics (DAC settling, bridge solve, die thermal step) runs exactly as
  /// in tick(), staging the bridge differentials into per-loop scratch
  /// buffers; both channels then process the frame in one block each, and
  /// the firmware runs at the frame boundary — where the scalar path runs it
  /// too. Bit-identical to `decimation` tick() calls. Requires frame
  /// alignment (tick_phase() == 0); throws std::logic_error otherwise.
  void tick_frame(const maf::Environment& env);

  /// Modulator ticks since the last frame boundary (0 = aligned).
  [[nodiscard]] int tick_phase() const { return tick_phase_; }

  /// Runs the loop for `duration` under a constant environment. Internally
  /// advances frame-by-frame (tick_frame) whenever aligned, falling back to
  /// scalar ticks for the unaligned head/tail — output is bit-identical to a
  /// pure tick() loop either way.
  void run(util::Seconds duration, const maf::Environment& env);

  /// Ticks the loop through `dwell` under a constant environment and returns
  /// the mean bridge voltage over the dwell's trailing fraction — the settled
  /// reading of one calibration point.
  [[nodiscard]] double settled_voltage(const maf::Environment& env,
                                       util::Seconds dwell,
                                       double trailing_fraction = 0.4);

  /// Commissions the sensor at zero flow: settles the loop and nulls the
  /// direction channel's residual offset (heater tolerance mismatch).
  void commission(const maf::Environment& zero_flow_env,
                  util::Seconds settle = util::Seconds{3.0});

  /// Returns the whole loop — die, package, platform, PI, filters, timers,
  /// commissioning null — to its post-construction state. One-time part draws
  /// (tolerances, offsets, mismatch) persist; noise/dither streams rewind, so
  /// a reset loop replays a stimulus bit-identically.
  void reset();

  /// Field reboot: power-cycles the *electronics* only — ISIF platform
  /// (channels, DACs, firmware/watchdog), PI, filters, commissioning null and
  /// the loop bootstrap — while the die and package keep their physical state
  /// (a reboot does not mend a membrane, dry a package or re-solder a bond
  /// wire) and simulation time keeps running. This is the supervisor's
  /// recovery move before a re-commission attempt.
  void reboot();

  [[nodiscard]] util::Seconds tick_period() const;
  [[nodiscard]] util::Seconds now() const { return t_; }

  // --- measurands ------------------------------------------------------------
  /// Commanded bridge supply (PI output × DAC full scale): the King's-law U.
  [[nodiscard]] double bridge_voltage() const;
  /// U after the 0.1 Hz output IIR — the reading the paper reports.
  [[nodiscard]] double filtered_voltage() const;
  /// Signed ratiometric tandem-bridge imbalance err_B/U (offset-nulled,
  /// low-passed, dimensionless).
  [[nodiscard]] double direction_signal() const;
  /// −1, 0 (inside dead-band) or +1.
  [[nodiscard]] int direction() const;
  /// Ambient (fluid) temperature as sensed through Rt.
  [[nodiscard]] util::Kelvin sensed_ambient() const;
  /// Raw PI output in [pi_min, pi_max].
  [[nodiscard]] double control_output() const { return u_; }

  [[nodiscard]] CtaStatus status() const;

  /// The sensor's blackbox: recent loop events (drive phases, PI saturation,
  /// ADC overload, faults, commissioning/reset marks), stamped with
  /// simulation time. Deliberately NOT cleared by reset() — a blackbox that
  /// forgets the crash is useless. Mutable so diagnosis layers
  /// (core::HealthMonitor) can append fault records through a const sensor.
  [[nodiscard]] obs::FlightRecorder& flight() const { return flight_; }

  [[nodiscard]] maf::MafDie& die() { return die_; }
  [[nodiscard]] const maf::MafDie& die() const { return die_; }
  [[nodiscard]] maf::Package& package() { return package_; }
  [[nodiscard]] isif::Isif& platform() { return isif_; }
  [[nodiscard]] const CtaConfig& config() const { return config_; }

  /// Checkpoint support: the whole loop's evolving state — plant (die,
  /// package), platform, controller, filters, timers, commissioning null,
  /// pulse bookkeeping and the blackbox. Restore targets a freshly
  /// constructed loop with the identical config + rng (the part draws come
  /// from reconstruction). The frame scratch buffers are not state: every
  /// tick_frame() call overwrites them before use.
  void save_state(state::Writer& w) const;
  void load_state(state::Reader& r);

 private:
  struct BridgeDifferentials {
    util::Volts a, b;
  };
  /// The terms of step_plant that depend only on the environment, the tick
  /// period or a part constant. tick() computes them every tick and
  /// tick_frame() once per frame, with the same code (DESIGN.md §9).
  struct PlantTerms {
    util::Seconds dt;
    double ingress_rate;  // maf::Package::ingress_rate
    double supply_decay;  // supply DAC settling factor for dt
    maf::MafDie::StepTerms die;
  };
  PlantTerms plant_terms(const maf::Environment& env);
  /// One modulator tick of the plant, the physics tick() and tick_frame()
  /// share: advances time, package and supply DAC, solves both bridges,
  /// feeds their Joule powers to the die and steps it. `terms` must be
  /// plant_terms(env). Returns the bridge differentials the two channels
  /// sample this tick.
  BridgeDifferentials step_plant(const maf::Environment& env,
                                 const PlantTerms& terms);
  /// Frame boundary, shared by tick() and tick_frame() so both record
  /// identical histories: latches the measurement channel's decimated sample
  /// into the firmware inputs, notes overload edges in the blackbox and runs
  /// the firmware tick.
  void end_frame(const isif::ChannelSample& sample_a);
  void control_update();
  /// The electronics' power-up state, shared by the constructor, reset()
  /// and reboot(): platform, PI, filters, timers, commissioning null and the
  /// loop bootstrap. The die, the package and the clock are not touched.
  void restart_electronics();

  CtaConfig config_;
  maf::MafDie die_;
  maf::Package package_;
  isif::Isif isif_;
  isif::PiIp pi_;
  dsp::BiquadCascade output_iir_;
  dsp::OnePole direction_lp_;

  util::Ohms top_a_;
  util::Seconds t_{0.0};
  long long control_ticks_ = 0;
  int tick_phase_ = 0;  // modulator ticks since the last frame boundary

  // Frame-path scratch: per-tick bridge differentials of one decimation
  // frame, reused across frames (sized once at construction).
  std::vector<double> frame_diff_a_;
  std::vector<double> frame_diff_b_;

  // Latest decimated samples feeding the firmware tasks.
  double pending_error_code_ = 0.0;   // normalised bridge-A sample
  double pending_dir_code_ = 0.0;     // normalised bridge-B sample
  bool adc_overload_ = false;

  double u_ = 0.0;                    // PI output (DAC fraction)
  double u_held_ = 0.0;               // PI output held across off phases
  double filtered_u_ = 0.0;           // output of the 0.1 Hz IIR (fraction)
  double direction_offset_ = 0.0;     // commissioning null
  double dir_filtered_ = 0.0;
  bool phase_on_ = true;
  bool was_on_ = true;
  bool output_primed_ = false;

  // Blackbox + the edge detectors feeding it (see flight()).
  mutable obs::FlightRecorder flight_{64};
  bool pi_saturated_ = false;
  bool adc_overload_prev_ = false;
};

}  // namespace aqua::cta
