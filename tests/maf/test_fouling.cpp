#include "maf/fouling.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace aqua::maf {
namespace {

using util::celsius;
using util::Kelvin;
using util::Seconds;

Environment line_env(double pressure_bar = 1.0) {
  Environment env;
  env.fluid_temperature = celsius(15.0);
  env.pressure = util::bar(pressure_bar);
  env.dissolved_gas_saturation = 1.0;
  env.chemistry = phys::WaterChemistry{300.0, 250.0, 7.8};  // hard water
  return env;
}

Kelvin wall(double overtemp_k) { return Kelvin{celsius(15.0).value() + overtemp_k}; }

TEST(Fouling, CleanStateInitially) {
  FoulingState f;
  EXPECT_DOUBLE_EQ(f.bubble_coverage(), 0.0);
  EXPECT_DOUBLE_EQ(f.deposit_thickness(), 0.0);
  EXPECT_DOUBLE_EQ(f.convection_factor(), 1.0);
}

TEST(Fouling, BubblesGrowAboveOnset) {
  FoulingState f;
  const auto env = line_env(1.0);
  // Onset at 1 bar, air-saturated ≈ 16 K; drive at 30 K overtemp.
  for (int i = 0; i < 1000; ++i) f.step(Seconds{0.1}, wall(30.0), env);
  EXPECT_GT(f.bubble_coverage(), 0.3);
  EXPECT_LT(f.convection_factor(), 0.8);
}

TEST(Fouling, NoBubblesBelowOnset) {
  FoulingState f;
  const auto env = line_env(1.0);
  for (int i = 0; i < 1000; ++i) f.step(Seconds{0.1}, wall(8.0), env);
  EXPECT_DOUBLE_EQ(f.bubble_coverage(), 0.0);
}

TEST(Fouling, PressureSuppressesBubbles) {
  FoulingState lo, hi;
  for (int i = 0; i < 1000; ++i) {
    lo.step(Seconds{0.1}, wall(25.0), line_env(1.0));
    hi.step(Seconds{0.1}, wall(25.0), line_env(3.0));
  }
  EXPECT_GT(lo.bubble_coverage(), 0.2);
  EXPECT_DOUBLE_EQ(hi.bubble_coverage(), 0.0);
}

TEST(Fouling, FlowShearShedsBubbles) {
  Environment still = line_env(1.0);
  Environment flowing = line_env(1.0);
  flowing.speed = util::metres_per_second(2.0);
  FoulingState a, b;
  for (int i = 0; i < 2000; ++i) {
    a.step(Seconds{0.1}, wall(25.0), still);
    b.step(Seconds{0.1}, wall(25.0), flowing);
  }
  EXPECT_GT(a.bubble_coverage(), 2.0 * b.bubble_coverage());
}

TEST(Fouling, BubblesDetachWhenWallCools) {
  FoulingState f;
  const auto env = line_env(1.0);
  for (int i = 0; i < 1000; ++i) f.step(Seconds{0.1}, wall(30.0), env);
  const double covered = f.bubble_coverage();
  for (int i = 0; i < 2000; ++i) f.step(Seconds{0.1}, wall(2.0), env);
  EXPECT_LT(f.bubble_coverage(), 0.2 * covered);
}

TEST(Fouling, CoverageBounded) {
  FoulingState f;
  const auto env = line_env(1.0);
  for (int i = 0; i < 50000; ++i) f.step(Seconds{0.1}, wall(60.0), env);
  EXPECT_LE(f.bubble_coverage(), 0.95);
}

TEST(Fouling, DepositGrowsOnHotWallInHardWater) {
  FoulingParameters params;
  params.scaling.surface_reactivity = 1.0;  // bare surface
  FoulingState f{params};
  const auto env = line_env(2.0);
  // A week at 25 K overtemperature, big steps (quasi-static usage).
  for (int i = 0; i < 7 * 24; ++i) f.step(Seconds{3600.0}, wall(25.0), env);
  EXPECT_GT(f.deposit_thickness(), 0.3e-6);  // sub-micron to micron scale
  EXPECT_GT(f.deposit_resistance(util::SquareMetres{4e-9}), 0.0);
}

TEST(Fouling, PassivationSuppressesDeposit) {
  FoulingParameters bare;
  bare.scaling.surface_reactivity = 1.0;
  FoulingParameters sin_passivated;
  sin_passivated.scaling.surface_reactivity = 0.02;
  FoulingState a{bare}, b{sin_passivated};
  const auto env = line_env(2.0);
  for (int i = 0; i < 30 * 24; ++i) {
    a.step(Seconds{3600.0}, wall(25.0), env);
    b.step(Seconds{3600.0}, wall(25.0), env);
  }
  EXPECT_GT(a.deposit_thickness(), 10.0 * b.deposit_thickness());
}

TEST(Fouling, LowOvertemperatureBarelyScales) {
  FoulingParameters bare;
  bare.scaling.surface_reactivity = 1.0;
  FoulingState hot{bare}, cool{bare};
  const auto env = line_env(2.0);
  for (int i = 0; i < 30 * 24; ++i) {
    hot.step(Seconds{3600.0}, wall(30.0), env);
    cool.step(Seconds{3600.0}, wall(5.0), env);
  }
  EXPECT_GT(hot.deposit_thickness(), cool.deposit_thickness());
}

TEST(Fouling, CleanResets) {
  FoulingState f;
  const auto env = line_env(1.0);
  for (int i = 0; i < 500; ++i) f.step(Seconds{0.1}, wall(30.0), env);
  f.clean();
  EXPECT_DOUBLE_EQ(f.bubble_coverage(), 0.0);
  EXPECT_DOUBLE_EQ(f.deposit_thickness(), 0.0);
}

TEST(CaCO3, SaturationWallTemperatureIsConservative) {
  // FoulingState::step skips the deposit rate of a clean wall below
  // FoulingDrive::saturation_wall. For drives of 1–400 mg/L (pH 7 halves
  // the hardness exactly), every wall within 1e-3 K below that limit must
  // have a rate of exactly +0.0, and 1e-3 K above it the wall must grow a
  // deposit, so the limit is also tight.
  const phys::ScalingKinetics k{};
  Environment env = line_env(2.0);
  long skipped = 0;
  for (double hardness = 2.0; hardness <= 800.0; hardness += 0.5) {
    env.chemistry = phys::WaterChemistry{hardness, hardness, 7.0};
    const FoulingDrive drive = fouling_drive(env);
    ASSERT_EQ(drive.scaling_drive, 0.5 * hardness);
    const double limit = drive.saturation_wall;
    for (int i = -1000; i < 0; ++i) {
      const double wall = limit + 1e-6 * i;
      if (!(wall < limit)) continue;
      ++skipped;
      const double rate =
          phys::deposit_growth_rate(k, drive.scaling_drive, Kelvin{wall}, 0.0);
      ASSERT_EQ(rate, 0.0) << hardness << " " << i;
      ASSERT_FALSE(std::signbit(rate)) << hardness << " " << i;
    }
    FoulingState above;
    above.step(Seconds{1.0}, Kelvin{limit + 1e-3}, env, drive);
    EXPECT_GT(above.deposit_thickness(), 0.0) << hardness;
  }
  EXPECT_GT(skipped, 1500000);
}

}  // namespace
}  // namespace aqua::maf
