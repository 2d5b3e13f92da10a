#include "core/cta.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "analog/bridge.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "phys/resistor.hpp"
#include "util/math.hpp"

namespace aqua::cta {

namespace {
// Simulated seconds of zero-flow settling each commissioning consumed. The
// observation is simulation time (deterministic), not wall time.
const obs::Histogram kCommissionSettle{
    "cta.commission.settle_sim_seconds",
    obs::HistogramSpec{0.1, 100.0, 30, true}};
const obs::Counter kAdcOverloadTicks{"cta.loop.adc_overload_ticks"};
}  // namespace

using util::Hertz;
using util::Kelvin;
using util::Ohms;
using util::Seconds;
using util::Volts;

namespace {

isif::IsifConfig with_dac_full_scale(isif::IsifConfig cfg, Volts fs) {
  cfg.dac12.full_scale = fs;
  return cfg;
}

/// The balancing resistor choice: either from the die's *measured* element
/// values (factory trim) or from the datasheet nominals (untrimmed build).
Ohms pick_top_a(const maf::MafDie& die, const CtaConfig& cfg) {
  const Kelvin t_hot{cfg.commissioning_temperature.value() +
                     cfg.overtemperature.value()};
  if (cfg.factory_trim) {
    return analog::balancing_top_resistor(
        die.heater_a_resistance_at(t_hot), cfg.top_resistor_b,
        die.reference_resistance_at(cfg.commissioning_temperature));
  }
  const phys::TcrResistor heater_nominal(die.spec().heater);
  const phys::TcrResistor reference_nominal(die.spec().reference);
  return analog::balancing_top_resistor(
      heater_nominal.resistance(t_hot), cfg.top_resistor_b,
      reference_nominal.resistance(cfg.commissioning_temperature));
}

}  // namespace

CtaAnemometer::CtaAnemometer(const maf::MafSpec& maf_spec,
                             const isif::IsifConfig& isif_config,
                             const CtaConfig& config, util::Rng rng)
    : config_(config),
      die_(maf_spec, rng),
      package_(maf::PackageSpec{}, rng.split()),
      isif_(with_dac_full_scale(isif_config, config.dac_full_scale),
            rng.split()),
      pi_(config.pi, dsp::PidLimits{config.pi_min, config.pi_max},
          Hertz{isif_config.channel.modulator_clock.value() /
                isif_config.channel.decimation},
          config.pi_impl),
      output_iir_(dsp::design_butterworth_lowpass(
          2, config.output_cutoff,
          Hertz{isif_config.channel.modulator_clock.value() /
                isif_config.channel.decimation / config.output_divisor})),
      direction_lp_(config.direction_cutoff,
                    Hertz{isif_config.channel.modulator_clock.value() /
                          isif_config.channel.decimation}),
      top_a_(pick_top_a(die_, config)) {
  if (config.pulse.enabled &&
      (config.pulse.duty <= 0.0 || config.pulse.duty > 1.0))
    throw std::invalid_argument("CtaAnemometer: pulse duty outside (0,1]");
  if (config.output_divisor < 1)
    throw std::invalid_argument("CtaAnemometer: output divisor must be >= 1");

  restart_electronics();

  const auto frame =
      static_cast<std::size_t>(isif_config.channel.decimation);
  frame_diff_a_.assign(frame, 0.0);
  frame_diff_b_.assign(frame, 0.0);

  // Firmware tasks, costed against the LEON budget (paper §3).
  const isif::CycleCosts costs{};
  isif_.firmware().add_task("cta_pi", 1, pi_.cycles_per_sample(),
                            [this] { control_update(); });
  isif_.firmware().add_task(
      "direction_lp", 1, costs.sample_overhead + costs.per_biquad_section,
      [this] {
        // Ratiometric: bridge B's static (tolerance) imbalance scales with
        // the supply, so only err_B/U can be nulled once at commissioning.
        if (phase_on_) {
          const double supply = std::max(bridge_voltage(), 0.05);
          dir_filtered_ = direction_lp_.process(pending_dir_code_ / supply -
                                                direction_offset_);
        }
      });
  isif_.firmware().add_task(
      "output_iir", config_.output_divisor,
      costs.sample_overhead + 2 * costs.per_biquad_section, [this] {
        if (!output_primed_) {
          output_iir_.prime(u_);
          output_primed_ = true;
        }
        filtered_u_ = output_iir_.process(u_);
      });
}

Seconds CtaAnemometer::tick_period() const {
  return Seconds{1.0 / isif_.config().channel.modulator_clock.value()};
}

CtaAnemometer::PlantTerms CtaAnemometer::plant_terms(
    const maf::Environment& env) {
  const Seconds dt = tick_period();
  return PlantTerms{dt, package_.ingress_rate(env.pressure),
                    isif_.dac(0).settling_decay(dt), die_.step_terms(env)};
}

CtaAnemometer::BridgeDifferentials CtaAnemometer::step_plant(
    const maf::Environment& env, const PlantTerms& terms) {
  t_ += terms.dt;
  package_.step(terms.dt, terms.ingress_rate);
  const Volts supply = isif_.dac(0).update_with_decay(terms.supply_decay);

  // Both half-bridge pairs share the supply and the interdigitated reference.
  const analog::BridgeArms arms_a{top_a_, die_.heater_a_resistance(),
                                  config_.top_resistor_b,
                                  die_.reference_resistance()};
  const analog::BridgeArms arms_b{top_a_, die_.heater_b_resistance(),
                                  config_.top_resistor_b,
                                  die_.reference_resistance()};
  const auto sol_a = analog::solve_bridge(arms_a, supply);
  const auto sol_b = analog::solve_bridge(arms_b, supply);

  die_.set_heater_powers(sol_a.p_bot_a, sol_b.p_bot_a,
                         sol_a.p_bot_b + sol_b.p_bot_b);
  die_.step(terms.dt, env, terms.die);
  return {sol_a.differential, sol_b.differential};
}

void CtaAnemometer::end_frame(const isif::ChannelSample& sample_a) {
  const double max_code = 32767.0;  // 16-bit channel word
  pending_error_code_ = static_cast<double>(sample_a.code) / max_code;
  adc_overload_ = sample_a.overload;
  if (adc_overload_) kAdcOverloadTicks.add(1);
  if (adc_overload_ != adc_overload_prev_) {
    flight_.record(t_.value(), adc_overload_
                                   ? obs::FlightRecordKind::kAdcOverloadEnter
                                   : obs::FlightRecordKind::kAdcOverloadExit);
    adc_overload_prev_ = adc_overload_;
  }
  isif_.firmware().tick();
}

void CtaAnemometer::tick(const maf::Environment& env) {
  if (++tick_phase_ >= isif_.config().channel.decimation) tick_phase_ = 0;
  const BridgeDifferentials diff = step_plant(env, plant_terms(env));
  const auto sample_a = isif_.channel(0).tick(diff.a, env.fluid_temperature);
  const auto sample_b = isif_.channel(1).tick(diff.b, env.fluid_temperature);
  if (sample_b) pending_dir_code_ = sample_b->value;
  if (sample_a) end_frame(*sample_a);
}

void CtaAnemometer::tick_frame(const maf::Environment& env) {
  if (tick_phase_ != 0)
    throw std::logic_error(
        "CtaAnemometer: tick_frame needs a frame-aligned loop "
        "(tick_phase() == 0); advance with tick() to the boundary first");

  // Per-tick physics, exactly as tick() runs it; the channel inputs are
  // staged instead of pushed through the signal chain one at a time. Nothing
  // in this loop reads channel or firmware state, and the firmware only acts
  // at the frame boundary — which is why deferring the chain to one block per
  // channel reproduces the scalar interleaving bit-for-bit (DESIGN.md §9).
  // The environment-only terms are the same value at every tick of the
  // frame, so they are computed once.
  const PlantTerms terms = plant_terms(env);
  const std::size_t frame = frame_diff_a_.size();
  for (std::size_t i = 0; i < frame; ++i) {
    const BridgeDifferentials diff = step_plant(env, terms);
    frame_diff_a_[i] = diff.a.value();
    frame_diff_b_[i] = diff.b.value();
  }

  const isif::ChannelSample sample_a =
      isif_.channel(0).process_frame(frame_diff_a_, env.fluid_temperature);
  const isif::ChannelSample sample_b =
      isif_.channel(1).process_frame(frame_diff_b_, env.fluid_temperature);
  pending_dir_code_ = sample_b.value;
  end_frame(sample_a);
}

void CtaAnemometer::control_update() {
  ++control_ticks_;
  if (config_.pulse.enabled) {
    const double period = config_.pulse.period.value();
    const double phase = std::fmod(t_.value(), period) / period;
    phase_on_ = phase < config_.pulse.duty;
  } else {
    phase_on_ = true;
  }

  auto& dac = isif_.dac(0);
  const int max_code = dac.dac().max_code();

  if (!phase_on_) {
    if (was_on_) {
      u_held_ = u_;
      flight_.record(t_.value(), obs::FlightRecordKind::kDriveOff, 0, u_held_);
    }
    was_on_ = false;
    dac.request_code(static_cast<int>(
        std::lround(config_.pulse.keep_alive * max_code)));
    return;  // PI frozen through the off phase
  }
  const double error = -pending_error_code_;
  if (!was_on_) {
    // Bumpless resume: back-calculate the integrator against the error the
    // loop is about to see, so update() reproduces u_held_ exactly instead of
    // re-adding the proportional term on top of it.
    pi_.reset(u_held_, error);
    was_on_ = true;
    flight_.record(t_.value(), obs::FlightRecordKind::kDriveOn, 0, u_held_);
  }
  u_ = pi_.update(error);
  dac.request_code(static_cast<int>(std::lround(u_ * max_code)));

  const bool saturated = u_ <= config_.pi_min || u_ >= config_.pi_max;
  if (saturated != pi_saturated_) {
    flight_.record(t_.value(), saturated
                                   ? obs::FlightRecordKind::kPiSaturationEnter
                                   : obs::FlightRecordKind::kPiSaturationExit,
                   0, u_);
    pi_saturated_ = saturated;
  }
}

void CtaAnemometer::run(Seconds duration, const maf::Environment& env) {
  AQUA_TRACE_SPAN_SIM("cta.run", t_.value());
  const long long n = util::steps_to_cover(duration, tick_period());
  const long long frame = isif_.config().channel.decimation;
  long long i = 0;
  // Scalar ticks up to the next frame boundary, whole frames through the
  // block path, scalar again for the sub-frame tail. Bit-identical to a pure
  // tick() loop at every step.
  while (i < n && tick_phase_ != 0) {
    tick(env);
    ++i;
  }
  for (; i + frame <= n; i += frame) tick_frame(env);
  for (; i < n; ++i) tick(env);
}

double CtaAnemometer::settled_voltage(const maf::Environment& env,
                                      Seconds dwell, double trailing_fraction) {
  const long long n = util::steps_to_cover(dwell, tick_period());
  const long long tail_start =
      n - static_cast<long long>(trailing_fraction * static_cast<double>(n));
  double acc = 0.0;
  long long count = 0;
  for (long long i = 0; i < n; ++i) {
    tick(env);
    if (i >= tail_start) {
      acc += bridge_voltage();
      ++count;
    }
  }
  return count > 0 ? acc / static_cast<double>(count) : 0.0;
}

void CtaAnemometer::commission(const maf::Environment& zero_flow_env,
                               Seconds settle) {
  // The heavily-filtered direction signal settles slowly, so the null is
  // taken in passes: each pass absorbs what the filter has converged to and
  // the loop stops once the increment is negligible against the dead-band.
  AQUA_TRACE_SPAN_SIM("cta.commission", t_.value());
  double settled = 0.0;
  for (int pass = 0; pass < 5; ++pass) {
    run(settle, zero_flow_env);
    settled += settle.value();
    const double increment = dir_filtered_;
    direction_offset_ += increment;
    direction_lp_.reset(0.0);
    dir_filtered_ = 0.0;
    if (std::abs(increment) < 0.25 * config_.direction_deadband) break;
  }
  kCommissionSettle.observe(settled);
  flight_.record(t_.value(), obs::FlightRecordKind::kCommission, 0, settled);
}

void CtaAnemometer::restart_electronics() {
  // The blackbox history survives on purpose; only its edge detectors
  // restart, so a replay records the same transitions again.
  pi_saturated_ = false;
  adc_overload_prev_ = false;
  isif_.reset();
  output_iir_.reset();
  direction_lp_.reset(0.0);
  control_ticks_ = 0;
  tick_phase_ = 0;  // the channels' decimation counters restarted with isif_
  pending_error_code_ = 0.0;
  pending_dir_code_ = 0.0;
  adc_overload_ = false;
  filtered_u_ = 0.0;
  direction_offset_ = 0.0;
  dir_filtered_ = 0.0;
  phase_on_ = true;
  was_on_ = true;
  output_primed_ = false;
  // Bootstrap: keep-alive floor on the PI and the bridge-supply DAC.
  u_ = u_held_ = config_.pi_min;
  pi_.reset(u_);
  isif_.dac(0).request_code(static_cast<int>(
      std::lround(u_ * isif_.dac(0).dac().max_code())));
}

void CtaAnemometer::reset() {
  // Record the reset at the *old* time, then rewind.
  flight_.record(t_.value(), obs::FlightRecordKind::kReset);
  die_.reset();
  package_.reset();
  t_ = Seconds{0.0};
  restart_electronics();
}

void CtaAnemometer::reboot() {
  flight_.record(t_.value(), obs::FlightRecordKind::kReboot);
  // Electronics only: die_ and package_ keep their (possibly damaged)
  // physical state, and t_ keeps running — the plant does not reboot.
  restart_electronics();
}

void CtaAnemometer::save_state(state::Writer& w) const {
  die_.save_state(w);
  package_.save_state(w);
  isif_.save_state(w);
  pi_.save_state(w);
  output_iir_.save_state(w);
  w.f64(direction_lp_.value());
  w.f64(t_.value());
  w.i64(control_ticks_);
  w.i32(tick_phase_);
  w.f64(pending_error_code_);
  w.f64(pending_dir_code_);
  w.boolean(adc_overload_);
  w.f64(u_);
  w.f64(u_held_);
  w.f64(filtered_u_);
  w.f64(direction_offset_);
  w.f64(dir_filtered_);
  w.boolean(phase_on_);
  w.boolean(was_on_);
  w.boolean(output_primed_);
  flight_.save_state(w);
  w.boolean(pi_saturated_);
  w.boolean(adc_overload_prev_);
}

void CtaAnemometer::load_state(state::Reader& r) {
  die_.load_state(r);
  package_.load_state(r);
  isif_.load_state(r);
  pi_.load_state(r);
  output_iir_.load_state(r);
  direction_lp_.reset(r.f64());
  t_ = Seconds{r.f64()};
  control_ticks_ = r.i64();
  tick_phase_ = r.i32();
  pending_error_code_ = r.f64();
  pending_dir_code_ = r.f64();
  adc_overload_ = r.boolean();
  u_ = r.f64();
  u_held_ = r.f64();
  filtered_u_ = r.f64();
  direction_offset_ = r.f64();
  dir_filtered_ = r.f64();
  phase_on_ = r.boolean();
  was_on_ = r.boolean();
  output_primed_ = r.boolean();
  flight_.load_state(r);
  pi_saturated_ = r.boolean();
  adc_overload_prev_ = r.boolean();
}

double CtaAnemometer::bridge_voltage() const {
  return u_ * config_.dac_full_scale.value();
}

double CtaAnemometer::filtered_voltage() const {
  return (output_primed_ ? filtered_u_ : u_) * config_.dac_full_scale.value();
}

double CtaAnemometer::direction_signal() const { return dir_filtered_; }

int CtaAnemometer::direction() const {
  if (dir_filtered_ > config_.direction_deadband) return 1;
  if (dir_filtered_ < -config_.direction_deadband) return -1;
  return 0;
}

Kelvin CtaAnemometer::sensed_ambient() const {
  // The trim station stores Rt measured at the commissioning temperature, so
  // firmware only relies on the (well-controlled) film TCR, not the ±30 Ω
  // absolute tolerance. Residual error: reference self-heating (~0.5 K).
  const double r0 =
      die_.reference_resistance_at(config_.commissioning_temperature).value();
  const double r = die_.reference_resistance().value();
  const double alpha = die_.spec().reference.alpha;
  return Kelvin{config_.commissioning_temperature.value() +
                (r - r0) / (alpha * r0)};
}

CtaStatus CtaAnemometer::status() const {
  return CtaStatus{die_.membrane_intact(), package_.healthy(), adc_overload_,
                   isif_.firmware().watchdog_tripped(),
                   isif_.firmware().average_load()};
}

}  // namespace aqua::cta
