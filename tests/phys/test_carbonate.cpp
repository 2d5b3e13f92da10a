#include "phys/carbonate.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace aqua::phys {
namespace {

using util::celsius;

TEST(Carbonate, SolubilityIsRetrograde) {
  // Inverse-solubility salt: hotter water dissolves less CaCO3.
  EXPECT_GT(caco3_solubility_mg_per_l(celsius(10.0)),
            caco3_solubility_mg_per_l(celsius(40.0)));
  EXPECT_GT(caco3_solubility_mg_per_l(celsius(40.0)),
            caco3_solubility_mg_per_l(celsius(80.0)));
}

TEST(Carbonate, SolubilityAnchoredToPotableWaterEquilibrium) {
  // ~330 mg/L at 15 °C (typical hard tap water sits near saturation), falling
  // with temperature.
  EXPECT_NEAR(caco3_solubility_mg_per_l(celsius(15.0)), 330.0, 1.0);
  EXPECT_NEAR(caco3_solubility_mg_per_l(celsius(25.0)), 265.0, 10.0);
}

TEST(Carbonate, SaturationRisesWithWallTemperature) {
  const WaterChemistry hard{300.0, 250.0, 7.8};
  EXPECT_GT(saturation_ratio(hard, celsius(40.0)),
            saturation_ratio(hard, celsius(15.0)));
}

TEST(Carbonate, HardWaterNearSaturationAtBulkTemperature) {
  // The regime the paper's sensor lives in: the bulk water does not scale the
  // pipe, only the heated element tips over S = 1.
  const WaterChemistry hard{300.0, 250.0, 7.8};
  EXPECT_LT(saturation_ratio(hard, celsius(15.0)), 1.0);
  EXPECT_GT(saturation_ratio(hard, celsius(15.0)), 0.4);
}

TEST(Carbonate, SoftWaterStaysUndersaturatedOnCoolWalls) {
  const WaterChemistry soft{30.0, 25.0, 7.0};
  EXPECT_LT(saturation_ratio(soft, celsius(15.0)), 1.0);
}

TEST(Carbonate, HardWaterScalesHotWalls) {
  const WaterChemistry hard{300.0, 250.0, 7.8};
  EXPECT_GT(saturation_ratio(hard, celsius(40.0)), 1.0);
}

TEST(Carbonate, GrowthPositiveWhenSupersaturated) {
  const WaterChemistry hard{300.0, 250.0, 7.8};
  const ScalingKinetics k{};
  EXPECT_GT(deposit_growth_rate(k, hard, celsius(40.0), 0.0), 0.0);
}

TEST(Carbonate, DissolutionWhenUndersaturatedWithDeposit) {
  const WaterChemistry soft{30.0, 25.0, 7.0};
  const ScalingKinetics k{};
  EXPECT_LT(deposit_growth_rate(k, soft, celsius(15.0), 1e-6), 0.0);
  // But a clean surface cannot go negative.
  EXPECT_DOUBLE_EQ(deposit_growth_rate(k, soft, celsius(15.0), 0.0), 0.0);
}

TEST(Carbonate, PassivationSuppressesGrowth) {
  const WaterChemistry hard{300.0, 250.0, 7.8};
  ScalingKinetics bare{};
  ScalingKinetics passivated{};
  passivated.surface_reactivity = 0.02;  // PECVD SiN
  const double g_bare = deposit_growth_rate(bare, hard, celsius(40.0), 0.0);
  const double g_pass =
      deposit_growth_rate(passivated, hard, celsius(40.0), 0.0);
  EXPECT_NEAR(g_pass / g_bare, 0.02, 1e-12);
}

TEST(Carbonate, GrowthSelfLimitsWithThickness) {
  const WaterChemistry hard{300.0, 250.0, 7.8};
  const ScalingKinetics k{};
  EXPECT_GT(deposit_growth_rate(k, hard, celsius(40.0), 0.0),
            deposit_growth_rate(k, hard, celsius(40.0), 20e-6));
}

TEST(Carbonate, GrowthRateRejectsNegativeThickness) {
  const ScalingKinetics k{};
  EXPECT_THROW((void)deposit_growth_rate(k, WaterChemistry{}, celsius(20.0), -1.0),
               std::invalid_argument);
}

TEST(Carbonate, DepositResistanceScalesLinearly) {
  const auto area = util::SquareMetres{1e-6};
  const double r1 = deposit_thermal_resistance(1e-6, area);
  const double r2 = deposit_thermal_resistance(2e-6, area);
  EXPECT_NEAR(r2 / r1, 2.0, 1e-12);
  // 1 µm calcite over 1 mm²: R = 1e-6/(2.2·1e-6) ≈ 0.4545 K/W.
  EXPECT_NEAR(r1, 0.4545, 0.001);
}

TEST(Carbonate, DepositResistanceValidation) {
  EXPECT_THROW((void)deposit_thermal_resistance(-1.0, util::SquareMetres{1.0}),
               std::invalid_argument);
  EXPECT_THROW((void)deposit_thermal_resistance(1.0, util::SquareMetres{0.0}),
               std::invalid_argument);
}

TEST(CaCO3, SaturationTemperatureInvertsTheSolubility) {
  for (const double drive : {1.0, 50.0, 153.7, 330.0, 400.0}) {
    const util::Kelvin t = caco3_saturation_temperature(drive);
    EXPECT_NEAR(caco3_solubility_mg_per_l(t) / drive, 1.0, 1e-12) << drive;
  }
  EXPECT_NEAR(util::to_celsius(caco3_saturation_temperature(330.0)), 15.0,
              1e-12);
  // No wall saturates a drive <= 0; a NaN drive compares below no wall.
  EXPECT_EQ(caco3_saturation_temperature(0.0).value(),
            std::numeric_limits<double>::infinity());
  EXPECT_EQ(caco3_saturation_temperature(-5.0).value(),
            std::numeric_limits<double>::infinity());
  EXPECT_TRUE(std::isnan(
      caco3_saturation_temperature(std::numeric_limits<double>::quiet_NaN())
          .value()));
  // A drive so small that the fit would underflow at its saturation
  // temperature gets the underflow limit instead, which is finite.
  const double tiny = caco3_saturation_temperature(1e-320).value();
  EXPECT_TRUE(std::isfinite(tiny));
  EXPECT_GT(caco3_solubility_mg_per_l(util::Kelvin{tiny}),
            std::numeric_limits<double>::min());
}

}  // namespace
}  // namespace aqua::phys
