#include "core/rig.hpp"

#include <cmath>
#include <vector>

#include "hydro/profiles.hpp"
#include "util/math.hpp"

namespace aqua::cta {

using util::MetresPerSecond;
using util::Seconds;

isif::IsifConfig fast_isif_config() {
  isif::IsifConfig cfg;
  cfg.channel.modulator_clock = util::hertz(64e3);
  cfg.channel.decimation = 32;
  cfg.channel.anti_alias_cutoff = util::hertz(8e3);
  return cfg;
}

isif::IsifConfig coarse_isif_config() {
  isif::IsifConfig cfg;
  cfg.channel.modulator_clock = util::hertz(16e3);
  cfg.channel.decimation = 8;
  cfg.channel.anti_alias_cutoff = util::hertz(2e3);
  return cfg;
}

// Named RNG streams of the rig's root seed (counter-based, so each component
// owns a decorrelated stream and adding components never reshuffles others).
namespace rig_stream {
constexpr std::uint64_t kLine = 0;
constexpr std::uint64_t kMagmeter = 1;
constexpr std::uint64_t kTurbine = 2;
constexpr std::uint64_t kAnemometer = 3;
}  // namespace rig_stream

VinciRig::VinciRig(const RigConfig& config)
    : config_(config),
      line_(config.line, util::Rng::stream(config.seed, rig_stream::kLine)),
      magmeter_(config.magmeter,
                util::Rng::stream(config.seed, rig_stream::kMagmeter)),
      turbine_(config.turbine,
               util::Rng::stream(config.seed, rig_stream::kTurbine)) {
  anemometer_ = std::make_unique<CtaAnemometer>(
      config.maf, config.isif, config.cta,
      util::Rng::stream(config.seed, rig_stream::kAnemometer));
}

Seconds VinciRig::control_period() const {
  return Seconds{config_.isif.channel.decimation /
                 config_.isif.channel.modulator_clock.value()};
}

void VinciRig::commission(Seconds settle) {
  maf::Environment env = line_.environment();
  env.speed = util::metres_per_second(0.0);
  anemometer_->commission(env, settle);
}

void VinciRig::run(Seconds duration) {
  const Seconds tc = control_period();
  const long long blocks = util::steps_to_cover(duration, tc);
  const int ticks_per_block = config_.isif.channel.decimation;
  for (long long b = 0; b < blocks; ++b) {
    line_.step(tc);
    const maf::Environment env = line_.environment();
    for (int i = 0; i < ticks_per_block; ++i) anemometer_->tick(env);
    mag_reading_ = magmeter_.step(line_.mean_velocity(), tc).value();
    turbine_reading_ = turbine_.step(line_.mean_velocity(), tc).value();
  }
}

double VinciRig::profile_factor_at(MetresPerSecond mean) const {
  const auto props = phys::water_properties(line_.temperature());
  const double re =
      hydro::pipe_reynolds(props, mean, config_.line.pipe_diameter);
  return hydro::profile_factor(re, config_.line.probe_radius_fraction);
}

KingFit VinciRig::calibrate(std::span<const double> speeds_mps, Seconds dwell) {
  std::vector<CalPoint> points;
  points.reserve(speeds_mps.size());
  for (double mean : speeds_mps) {
    maf::Environment env = line_.environment();
    // The probe sees the point velocity; calibrating against the reference
    // meter (mean velocity) absorbs the profile factor, exactly as in the
    // field campaign.
    env.speed =
        MetresPerSecond{mean * profile_factor_at(MetresPerSecond{mean})};
    const double u = anemometer_->settled_voltage(env, dwell);
    points.push_back(CalPoint{mean, u});
  }
  return fit_kings_law(points);
}

VinciRig::BidirectionalFit VinciRig::calibrate_bidirectional(
    std::span<const double> speeds_mps, Seconds dwell) {
  std::vector<CalPoint> fwd, rev;
  fwd.reserve(speeds_mps.size());
  rev.reserve(speeds_mps.size());
  for (double mean : speeds_mps) {
    const double point =
        mean * profile_factor_at(MetresPerSecond{std::abs(mean)});
    maf::Environment env = line_.environment();
    env.speed = MetresPerSecond{point};
    fwd.push_back(CalPoint{mean, anemometer_->settled_voltage(env, dwell)});
    env.speed = MetresPerSecond{-point};
    rev.push_back(CalPoint{mean, anemometer_->settled_voltage(env, dwell)});
  }
  return BidirectionalFit{fit_kings_law(fwd), fit_kings_law(rev)};
}

MetresPerSecond VinciRig::magmeter_reading() const {
  return MetresPerSecond{mag_reading_};
}

MetresPerSecond VinciRig::turbine_reading() const {
  return MetresPerSecond{turbine_reading_};
}

}  // namespace aqua::cta
