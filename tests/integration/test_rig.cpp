#include "core/rig.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace aqua::cta {
namespace {

using util::Seconds;

RigConfig quiet_rig() {
  RigConfig cfg;
  cfg.isif = fast_isif_config();
  cfg.line.turbulence_intensity = 0.0;
  cfg.line.hammer_bar_per_mps = 0.0;
  cfg.line.valve_tau = Seconds{0.3};
  cfg.seed = 42;
  return cfg;
}

TEST(VinciRig, CoSimulationRunsAndMetersAgree) {
  VinciRig rig{quiet_rig()};
  sim::Schedule speed{0.0};
  speed.step_to(1.0, Seconds{30.0});
  rig.line().set_speed_schedule(speed);
  rig.commission(Seconds{1.5});
  rig.run(Seconds{8.0});
  EXPECT_NEAR(rig.magmeter_reading().value(), 1.0, 0.05);
  EXPECT_NEAR(rig.turbine_reading().value(), 1.0, 0.06);
  EXPECT_NEAR(rig.line().mean_velocity().value(), 1.0, 1e-3);
}

TEST(VinciRig, ProfileFactorTurbulentRange) {
  VinciRig rig{quiet_rig()};
  const double f = rig.profile_factor_at(util::metres_per_second(1.0));
  EXPECT_GT(f, 1.1);
  EXPECT_LT(f, 1.35);
}

TEST(VinciRig, CalibrationProducesPhysicalKingFit) {
  VinciRig rig{quiet_rig()};
  rig.commission(Seconds{1.5});
  const std::vector<double> speeds{0.0, 0.15, 0.4, 0.9, 1.6, 2.5};
  const KingFit fit = rig.calibrate(speeds, Seconds{1.2});
  EXPECT_GT(fit.a, 0.0);  // zero-flow intercept (natural convection floor)
  EXPECT_GT(fit.b, 0.0);
  EXPECT_GT(fit.n, 0.3);
  EXPECT_LT(fit.n, 0.75);
  // Fit quality: residual well under the zero-flow voltage.
  EXPECT_LT(fit.rms_residual, 0.1 * fit.a + 0.05);
}

TEST(VinciRig, SettledVoltageRepeatable) {
  VinciRig rig{quiet_rig()};
  rig.commission(Seconds{1.5});
  maf::Environment env = rig.line().environment();
  env.speed = util::metres_per_second(1.0);
  const double u1 = rig.anemometer().settled_voltage(env, Seconds{1.5});
  const double u2 = rig.anemometer().settled_voltage(env, Seconds{1.5});
  EXPECT_NEAR(u1, u2, 0.01 * u1);
}

TEST(VinciRig, ControlPeriodConsistent) {
  VinciRig rig{quiet_rig()};
  EXPECT_NEAR(rig.control_period().value(), 32.0 / 64e3, 1e-12);
}

TEST(FastIsifConfig, SameControlRateFewerTicks) {
  const auto fast = fast_isif_config();
  const isif::IsifConfig slow{};
  EXPECT_DOUBLE_EQ(fast.channel.modulator_clock.value() / fast.channel.decimation,
                   slow.channel.modulator_clock.value() / slow.channel.decimation);
  EXPECT_LT(fast.channel.modulator_clock.value(),
            slow.channel.modulator_clock.value());
}

}  // namespace
}  // namespace aqua::cta
