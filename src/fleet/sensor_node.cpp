#include "fleet/sensor_node.hpp"

#include <algorithm>
#include <cmath>

#include "hydro/profiles.hpp"
#include "phys/fluid.hpp"
#include "state/rng_io.hpp"

namespace aqua::fleet {

using util::Seconds;

SensorNode::SensorNode(std::size_t index, SensorPlacement placement,
                       const SensorNodeConfig& config,
                       util::Metres pipe_diameter, util::Rng rng)
    : index_(index),
      placement_(placement),
      config_(config),
      pipe_diameter_(pipe_diameter),
      rng_(rng),
      anemometer_(config.maf, config.isif, config.cta, rng_.split()),
      initial_rng_(rng_) {}

void SensorNode::reset() {
  anemometer_.reset();
  turbulence_state_ = 0.0;
  trace_.clear();
  last_self_test_.reset();
  rng_ = initial_rng_;
}

void SensorNode::reboot() { anemometer_.reboot(); }

isif::ChannelSelfTestResult SensorNode::run_self_test(
    const isif::ChannelSelfTest& config) {
  last_self_test_ =
      isif::run_channel_self_test(anemometer_.platform().channel(0), config);
  return *last_self_test_;
}

double SensorNode::profile_factor_at(double mean_mps,
                                     util::Kelvin temperature) const {
  const auto props = phys::water_properties(temperature);
  const double re = hydro::pipe_reynolds(
      props, util::metres_per_second(std::abs(mean_mps)), pipe_diameter_);
  return hydro::profile_factor(re, placement_.radius_fraction);
}

maf::Environment SensorNode::environment_for(const PipeState& state) const {
  maf::Environment env;
  env.speed = util::metres_per_second(
      state.point_velocity_mps *
      (1.0 + config_.turbulence_intensity * turbulence_state_));
  env.fluid_temperature = state.temperature;
  env.pressure = state.pressure;
  return env;
}

void SensorNode::commission(const PipeState& state, Seconds settle) {
  PipeState still = state;
  still.mean_velocity_mps = 0.0;
  still.point_velocity_mps = 0.0;
  anemometer_.commission(environment_for(still), settle);
}

double SensorNode::settled_voltage(const maf::Environment& env,
                                   Seconds dwell) {
  const Seconds tick = anemometer_.tick_period();
  const long long n =
      static_cast<long long>(std::ceil(dwell.value() / tick.value()));
  const long long tail_start = n - static_cast<long long>(0.4 * n);
  double acc = 0.0;
  long long count = 0;
  for (long long i = 0; i < n; ++i) {
    anemometer_.tick(env);
    if (i >= tail_start) {
      acc += anemometer_.bridge_voltage();
      ++count;
    }
  }
  return count > 0 ? acc / static_cast<double>(count) : 0.0;
}

void SensorNode::calibrate(const PipeState& state,
                           std::span<const double> mean_speeds,
                           Seconds dwell) {
  std::vector<cta::CalPoint> points;
  points.reserve(mean_speeds.size());
  for (double mean : mean_speeds) {
    // Clean sweep (turbulence off), the probe immersed in the point velocity;
    // calibrating against the mean speed absorbs the profile factor.
    maf::Environment env;
    env.speed = util::metres_per_second(
        mean * profile_factor_at(mean, state.temperature));
    env.fluid_temperature = state.temperature;
    env.pressure = state.pressure;
    points.push_back(cta::CalPoint{mean, settled_voltage(env, dwell)});
  }
  estimator_.emplace(cta::fit_kings_law(points), config_.full_scale,
                     state.temperature);
}

void SensorNode::set_fit(const cta::KingFit& fit, util::Kelvin fit_temperature) {
  estimator_.emplace(fit, config_.full_scale, fit_temperature);
}

void SensorNode::advance(const PipeState& state, Seconds duration) {
  const int ticks_per_block = config_.isif.channel.decimation;
  const Seconds tc{ticks_per_block /
                   config_.isif.channel.modulator_clock.value()};
  const long long blocks =
      static_cast<long long>(std::ceil(duration.value() / tc.value()));
  // AR(1) turbulence refreshed at the control rate, like the station line.
  const double a =
      std::exp(-tc.value() / config_.turbulence_correlation.value());
  const double b = std::sqrt(std::max(0.0, 1.0 - a * a));
  for (long long blk = 0; blk < blocks; ++blk) {
    turbulence_state_ = a * turbulence_state_ + b * rng_.gaussian();
    const maf::Environment env = environment_for(state);
    // One turbulence block == one decimation frame, so the whole inner loop
    // runs through the block path (bit-identical to ticks_per_block scalar
    // ticks; the anemometer owns the reusable frame scratch). Commissioning
    // can leave the loop mid-frame, so realign with scalar ticks first.
    if (anemometer_.tick_phase() == 0) {
      anemometer_.tick_frame(env);
    } else {
      for (int i = 0; i < ticks_per_block; ++i) anemometer_.tick(env);
    }
  }

  TraceSample sample;
  sample.t_s = anemometer_.now().value();
  sample.bridge_voltage = anemometer_.bridge_voltage();
  sample.filtered_voltage = anemometer_.filtered_voltage();
  sample.true_mean_mps = state.mean_velocity_mps;
  if (estimator_) {
    const cta::FlowReading reading = estimator_->read(anemometer_);
    sample.estimate_mps = reading.speed.value();
    sample.direction = reading.direction;
  } else {
    sample.direction = anemometer_.direction();
  }
  trace_.push_back(sample);
}

void SensorNode::save_state(state::Writer& w) const {
  state::save_rng(w, rng_);
  anemometer_.save_state(w);
  w.boolean(estimator_.has_value());
  if (estimator_) estimator_->save_state(w);
  w.boolean(last_self_test_.has_value());
  if (last_self_test_) {
    w.f64(last_self_test_->measured_gain);
    w.f64(last_self_test_->gain_error);
    w.boolean(last_self_test_->pass);
  }
  w.f64(turbulence_state_);
  w.size(trace_.size());
  for (const TraceSample& s : trace_) {
    w.f64(s.t_s);
    w.f64(s.bridge_voltage);
    w.f64(s.filtered_voltage);
    w.f64(s.estimate_mps);
    w.f64(s.true_mean_mps);
    w.i32(s.direction);
  }
}

void SensorNode::load_state(state::Reader& r) {
  state::load_rng(r, rng_);
  anemometer_.load_state(r);
  if (r.boolean()) {
    estimator_ = cta::FlowEstimator::load_state(r);
  } else {
    estimator_.reset();
  }
  if (r.boolean()) {
    isif::ChannelSelfTestResult result;
    result.measured_gain = r.f64();
    result.gain_error = r.f64();
    result.pass = r.boolean();
    last_self_test_ = result;
  } else {
    last_self_test_.reset();
  }
  turbulence_state_ = r.f64();
  trace_.resize(r.size(44));
  for (TraceSample& s : trace_) {
    s.t_s = r.f64();
    s.bridge_voltage = r.f64();
    s.filtered_voltage = r.f64();
    s.estimate_mps = r.f64();
    s.true_mean_mps = r.f64();
    s.direction = r.i32();
  }
}

}  // namespace aqua::fleet
