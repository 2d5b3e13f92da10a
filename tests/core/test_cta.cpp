#include "core/cta.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "core/rig.hpp"
#include "state/serial.hpp"
#include "util/stats.hpp"

namespace aqua::cta {
namespace {

using util::celsius;
using util::metres_per_second;
using util::Rng;
using util::Seconds;

maf::Environment water_at(double v_mps, double t_c = 15.0,
                          double p_bar = 2.0) {
  maf::Environment env;
  env.speed = metres_per_second(v_mps);
  env.fluid_temperature = celsius(t_c);
  env.pressure = util::bar(p_bar);
  return env;
}

CtaAnemometer make_anemo(std::uint64_t seed = 7, CtaConfig cfg = {}) {
  Rng rng{seed};
  return CtaAnemometer{maf::MafSpec{}, fast_isif_config(), cfg, rng};
}

TEST(Cta, HoldsOvertemperatureSetpoint) {
  auto anemo = make_anemo();
  const auto env = water_at(0.5);
  anemo.run(Seconds{2.0}, env);
  const auto t = anemo.die().temperatures();
  const double overtemp = t.heater_a.value() - env.fluid_temperature.value();
  // Setpoint 5 K; reference self-heating adds a small positive bias.
  EXPECT_NEAR(overtemp, 5.0, 1.2);
}

TEST(Cta, TracksAmbientTemperatureChanges) {
  // The CT mode's selling point (§2): Rt rides the bridge, so the
  // *overtemperature* is held even when the water temperature moves.
  auto anemo = make_anemo();
  anemo.run(Seconds{2.0}, water_at(0.8, 10.0));
  const auto t_cold = anemo.die().temperatures();
  const double over_cold = t_cold.heater_a.value() - celsius(10.0).value();
  anemo.run(Seconds{2.0}, water_at(0.8, 25.0));
  const auto t_warm = anemo.die().temperatures();
  const double over_warm = t_warm.heater_a.value() - celsius(25.0).value();
  EXPECT_NEAR(over_cold, over_warm, 0.8);
}

TEST(Cta, BridgeVoltageMonotoneInFlow) {
  auto anemo = make_anemo();
  anemo.run(Seconds{1.5}, water_at(0.0));
  double prev = anemo.bridge_voltage();
  for (double v : {0.25, 0.7, 1.4, 2.5}) {
    anemo.run(Seconds{1.0}, water_at(v));
    const double u = anemo.bridge_voltage();
    EXPECT_GT(u, prev) << "v " << v;
    prev = u;
  }
}

TEST(Cta, SquareLawShape) {
  // U² should be ~affine in sqrt(v) (King's law with n = 0.5).
  auto anemo = make_anemo();
  std::vector<double> u2, sqv;
  for (double v : {0.2, 0.6, 1.2, 2.0}) {
    anemo.run(Seconds{1.5}, water_at(v));
    u2.push_back(anemo.bridge_voltage() * anemo.bridge_voltage());
    sqv.push_back(std::sqrt(v));
  }
  // Check collinearity: the slope between consecutive pairs is stable.
  const double s1 = (u2[1] - u2[0]) / (sqv[1] - sqv[0]);
  const double s2 = (u2[2] - u2[1]) / (sqv[2] - sqv[1]);
  const double s3 = (u2[3] - u2[2]) / (sqv[3] - sqv[2]);
  EXPECT_NEAR(s2 / s1, 1.0, 0.15);
  EXPECT_NEAR(s3 / s2, 1.0, 0.15);
}

TEST(Cta, DirectionDetectedBothWays) {
  // Direction sensing, not the 0.1 Hz reporting dynamics: a 1 Hz direction
  // filter settles ~10× faster without changing the wake physics.
  CtaConfig cfg;
  cfg.direction_cutoff = util::hertz(1.0);
  auto anemo = make_anemo(7, cfg);
  anemo.commission(water_at(0.0), Seconds{1.0});
  anemo.run(Seconds{1.0}, water_at(0.5));
  EXPECT_EQ(anemo.direction(), 1);
  anemo.run(Seconds{1.5}, water_at(-0.5));
  EXPECT_EQ(anemo.direction(), -1);
}

TEST(Cta, DirectionNeutralAtZeroFlowAfterCommission) {
  CtaConfig cfg;
  cfg.direction_cutoff = util::hertz(1.0);
  auto anemo = make_anemo(7, cfg);
  anemo.commission(water_at(0.0), Seconds{1.0});
  anemo.run(Seconds{0.5}, water_at(0.0));
  EXPECT_EQ(anemo.direction(), 0);
}

TEST(Cta, SensedAmbientTracksWater) {
  auto anemo = make_anemo();
  anemo.run(Seconds{1.5}, water_at(0.5, 18.0));
  // Commissioned Rt reference removes the ±30 Ω tolerance; the residual is
  // the reference's self-heating (≲ 1 K).
  EXPECT_NEAR(util::to_celsius(anemo.sensed_ambient()), 18.0, 1.0);
}

TEST(Cta, FilteredOutputSmootherThanRaw) {
  // Smoothing is a property of ANY output low-pass; a 1 Hz one settles in
  // ~2 s instead of the paper filter's ~20 s.
  CtaConfig cfg;
  cfg.output_cutoff = util::hertz(1.0);
  auto anemo = make_anemo(7, cfg);
  anemo.run(Seconds{4.0}, water_at(1.0));
  // Collect raw and filtered over 2 s.
  util::RunningStats raw, filt;
  const auto env = water_at(1.0);
  const long long ticks = static_cast<long long>(2.0 / anemo.tick_period().value());
  for (long long i = 0; i < ticks; ++i) {
    anemo.tick(env);
    if (i % 100 == 0) {
      raw.add(anemo.bridge_voltage());
      filt.add(anemo.filtered_voltage());
    }
  }
  EXPECT_LT(filt.stddev(), raw.stddev() + 1e-12);
}

TEST(Cta, StatusHealthyInNormalOperation) {
  auto anemo = make_anemo();
  anemo.run(Seconds{1.0}, water_at(0.5));
  const auto st = anemo.status();
  EXPECT_TRUE(st.membrane_intact);
  EXPECT_TRUE(st.package_healthy);
  EXPECT_FALSE(st.watchdog_tripped);
  EXPECT_LT(st.cpu_load, 0.05);  // software IPs are light on the LEON
  EXPECT_GT(st.cpu_load, 0.0);
}

TEST(Cta, PulsedDriveKeepsMeasuring) {
  CtaConfig cfg;
  cfg.pulse.enabled = true;
  cfg.pulse.period = Seconds{0.05};
  cfg.pulse.duty = 0.5;
  auto anemo = make_anemo(9, cfg);
  anemo.run(Seconds{3.0}, water_at(1.0));
  // The held measurand still reflects the flow.
  const double u_1 = anemo.bridge_voltage();
  anemo.run(Seconds{3.0}, water_at(2.5));
  EXPECT_GT(anemo.bridge_voltage(), u_1);
}

TEST(Cta, PulsedDriveLowersAverageWallTemperature) {
  const auto env = water_at(0.3);
  auto cont = make_anemo(11);
  cont.run(Seconds{2.0}, env);

  CtaConfig pcfg;
  pcfg.pulse.enabled = true;
  pcfg.pulse.period = Seconds{0.04};
  pcfg.pulse.duty = 0.4;
  auto pulsed = make_anemo(11, pcfg);
  pulsed.run(Seconds{2.0}, env);

  // Average heater temperature over one pulse period.
  auto avg_wall = [&](CtaAnemometer& a) {
    double acc = 0.0;
    int n = 0;
    const long long ticks =
        static_cast<long long>(0.2 / a.tick_period().value());
    for (long long i = 0; i < ticks; ++i) {
      a.tick(env);
      acc += a.die().temperatures().heater_a.value();
      ++n;
    }
    return acc / n;
  };
  EXPECT_LT(avg_wall(pulsed), avg_wall(cont) - 0.5);
}

TEST(Cta, MembraneBreakFlagsStatus) {
  auto anemo = make_anemo();
  anemo.run(Seconds{0.5}, water_at(0.5));
  anemo.run(Seconds{0.2}, water_at(0.5, 15.0, 120.0));  // overpressure
  EXPECT_FALSE(anemo.status().membrane_intact);
}

// A field reboot power-cycles the electronics only. The platform it leaves
// is byte for byte a freshly built twin's, with the loop back on its
// bootstrap floor, while the clock keeps running and the plant keeps its
// damage: a broken membrane stays broken, a wet package stays wet.
TEST(Cta, RebootRestartsTheElectronicsOnly) {
  auto anemo = make_anemo(29);
  auto twin = make_anemo(29);
  const auto platform_bytes = [](CtaAnemometer& a) {
    state::Writer w;
    a.platform().save_state(w);
    return w.take();
  };
  anemo.run(Seconds{0.5}, water_at(0.6));
  anemo.die().damage_membrane();
  anemo.package().inject_moisture(0.3);
  const double moisture = anemo.package().moisture();
  const double t_before = anemo.now().value();
  ASSERT_NE(platform_bytes(anemo), platform_bytes(twin));

  anemo.reboot();
  EXPECT_EQ(platform_bytes(anemo), platform_bytes(twin));
  EXPECT_EQ(anemo.control_output(), twin.control_output());
  EXPECT_EQ(anemo.filtered_voltage(), twin.filtered_voltage());
  EXPECT_EQ(anemo.direction_signal(), twin.direction_signal());
  EXPECT_EQ(anemo.tick_phase(), 0);
  EXPECT_GT(t_before, 0.0);
  EXPECT_EQ(anemo.now().value(), t_before);
  EXPECT_FALSE(anemo.die().membrane_intact());
  EXPECT_GT(moisture, 0.0);
  EXPECT_EQ(anemo.package().moisture(), moisture);
}

TEST(Cta, ConfigValidation) {
  CtaConfig bad;
  bad.pulse.enabled = true;
  bad.pulse.duty = 1.5;
  Rng rng{1};
  EXPECT_THROW(
      (CtaAnemometer{maf::MafSpec{}, fast_isif_config(), bad, rng}),
      std::invalid_argument);
  CtaConfig bad2;
  bad2.output_divisor = 0;
  Rng rng2{1};
  EXPECT_THROW(
      (CtaAnemometer{maf::MafSpec{}, fast_isif_config(), bad2, rng2}),
      std::invalid_argument);
}

TEST(Cta, RunRefusesADurationWithNoTickCount) {
  // A NaN, infinite or negative duration has no whole number of ticks, so
  // run() refuses it before the first tick.
  auto anemo = make_anemo();
  const auto env = water_at(0.5);
  for (const double d : {std::nan(""), HUGE_VAL, -0.1}) {
    EXPECT_THROW(anemo.run(Seconds{d}, env), std::invalid_argument)
        << "duration " << d;
    EXPECT_EQ(anemo.now().value(), 0.0);
  }
}

TEST(Cta, TickFrameBitIdenticalToScalarTicks) {
  // The whole conditioning loop — DAC, bridge solve, die thermal step, both
  // ISIF channels, firmware at the frame boundary — advanced a frame at a
  // time must land on exactly the state the scalar tick loop produces.
  auto scalar = make_anemo(51);
  auto block = make_anemo(51);
  const auto env = water_at(0.9);
  const int frame = scalar.platform().config().channel.decimation;
  for (int f = 0; f < 40; ++f) {
    for (int i = 0; i < frame; ++i) scalar.tick(env);
    block.tick_frame(env);
    ASSERT_EQ(scalar.now().value(), block.now().value()) << f;
    ASSERT_EQ(scalar.control_output(), block.control_output()) << f;
    ASSERT_EQ(scalar.bridge_voltage(), block.bridge_voltage()) << f;
    ASSERT_EQ(scalar.filtered_voltage(), block.filtered_voltage()) << f;
    ASSERT_EQ(scalar.direction_signal(), block.direction_signal()) << f;
    ASSERT_EQ(scalar.die().temperatures().heater_a.value(),
              block.die().temperatures().heater_a.value())
        << f;
  }
}

TEST(Cta, RunMixesFramesAndTicksBitIdentically) {
  // run() takes the block path for whole frames and scalar ticks for the
  // unaligned head/tail; a duration that is NOT a whole number of frames must
  // still match the pure scalar loop exactly.
  auto scalar = make_anemo(52);
  auto mixed = make_anemo(52);
  const auto env = water_at(0.4);
  const auto dt = scalar.tick_period();
  const long long n = 3 * 128 + 37;  // frames plus a sub-frame tail
  for (long long i = 0; i < n; ++i) scalar.tick(env);
  mixed.run(util::Seconds{(static_cast<double>(n) - 0.5) * dt.value()}, env);
  EXPECT_EQ(scalar.now().value(), mixed.now().value());
  EXPECT_EQ(scalar.control_output(), mixed.control_output());
  EXPECT_EQ(scalar.bridge_voltage(), mixed.bridge_voltage());
  EXPECT_EQ(scalar.direction_signal(), mixed.direction_signal());
  EXPECT_EQ(scalar.die().temperatures().heater_a.value(),
            mixed.die().temperatures().heater_a.value());
}

TEST(Cta, RunEndsWithinHalfATickOfTheDuration) {
  // 4.001 s is 64016.00000000001 ticks at 16 kHz: run() takes 64016 ticks,
  // not 64017.
  Rng rng{54};
  CtaAnemometer anemo{maf::MafSpec{}, coarse_isif_config(), CtaConfig{}, rng};
  anemo.run(Seconds{4.001}, water_at(0.2));
  EXPECT_NEAR(anemo.now().value(), 4.001, 0.5 * anemo.tick_period().value());
}

// 64-bit FNV-1a over a sensor's checkpoint image.
std::uint64_t state_hash(const CtaAnemometer& anemo) {
  state::Writer w;
  anemo.save_state(w);
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::uint8_t byte : w.view()) {
    h ^= byte;
    h *= 0x100000001b3ull;
  }
  return h;
}

TEST(Cta, TickFrameMatchesTicksWhereEveryPlantTermActs) {
  // Water where each environment-only plant term changes the state:
  // supersaturated at 1 bar (bubbles nucleate at any overtemperature), hard
  // and alkaline on a bare surface (the deposit grows), reverse flow at a new
  // speed in every frame (the wake warms heater A) and one overpressure frame
  // (the membrane breaks). Frames must match ticks after every frame, and the
  // final image is pinned.
  const CtaConfig cfg{};
  Rng rng{55};
  CtaAnemometer scalar{maf::MafSpec{}, coarse_isif_config(), cfg, rng};
  CtaAnemometer block{maf::MafSpec{}, coarse_isif_config(), cfg, rng};
  maf::Environment env = water_at(0.0, 15.0, 1.0);
  env.dissolved_gas_saturation = 1.6;
  env.chemistry = phys::WaterChemistry{600.0, 500.0, 8.5};
  const int frame = scalar.platform().config().channel.decimation;
  for (int f = 0; f < 600; ++f) {
    env.speed = metres_per_second(-0.05 - 0.001 * f);
    env.pressure = util::bar(f == 400 ? 120.0 : 1.0);
    for (int i = 0; i < frame; ++i) scalar.tick(env);
    block.tick_frame(env);
    ASSERT_EQ(state_hash(scalar), state_hash(block)) << f;
  }
  const maf::MafDie& die = scalar.die();
  EXPECT_GT(die.fouling_a().bubble_coverage(), 0.0);
  EXPECT_GT(die.fouling_a().deposit_thickness(), 0.0);
  EXPECT_FALSE(die.membrane_intact());
  EXPECT_EQ(state_hash(scalar), 0x3e9dacd68b815c18ull);
}

TEST(Cta, TickFrameRequiresAlignment) {
  auto anemo = make_anemo(53);
  const auto env = water_at(0.2);
  anemo.tick(env);
  EXPECT_EQ(anemo.tick_phase(), 1);
  EXPECT_THROW(anemo.tick_frame(env), std::logic_error);
}

TEST(Cta, FixedPointPiImplementationAlsoConverges) {
  CtaConfig cfg;
  cfg.pi_impl = isif::IpImpl::kHardwareFixed;
  auto anemo = make_anemo(13, cfg);
  const auto env = water_at(0.8);
  anemo.run(Seconds{2.0}, env);
  const auto t = anemo.die().temperatures();
  EXPECT_NEAR(t.heater_a.value() - env.fluid_temperature.value(), 5.0, 1.5);
}

}  // namespace
}  // namespace aqua::cta
