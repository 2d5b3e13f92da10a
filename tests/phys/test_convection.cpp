#include "phys/convection.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

namespace aqua::phys {
namespace {

using util::celsius;
using util::metres_per_second;
using util::micrometres;

const WireGeometry kWire{micrometres(4.0), micrometres(300.0)};

TEST(Reynolds, LinearInSpeedAndDiameter) {
  const auto w = water_properties(celsius(15.0));
  const double re1 = reynolds(w, metres_per_second(1.0), micrometres(4.0));
  const double re2 = reynolds(w, metres_per_second(2.0), micrometres(4.0));
  const double re3 = reynolds(w, metres_per_second(1.0), micrometres(8.0));
  EXPECT_NEAR(re2 / re1, 2.0, 1e-12);
  EXPECT_NEAR(re3 / re1, 2.0, 1e-12);
}

TEST(Reynolds, UsesAbsoluteSpeed) {
  const auto w = water_properties(celsius(15.0));
  EXPECT_DOUBLE_EQ(reynolds(w, metres_per_second(-1.0), micrometres(4.0)),
                   reynolds(w, metres_per_second(1.0), micrometres(4.0)));
}

TEST(KramersNusselt, ReducesToConductionFloorAtRest) {
  const double pr = 7.0;
  const double nu0 = kramers_nusselt(0.0, pr);
  EXPECT_NEAR(nu0, 0.42 * std::pow(pr, 0.2), 1e-12);
}

TEST(Kramers, ZeroReynoldsIsBitIdentical) {
  // kramers_nusselt skips the forced term at Re = 0. It must return the
  // full formula's bits at either zero over water's Prandtl range (~1.7 at
  // 100 °C to ~13.5 at 0 °C), air's (~0.7) and beyond.
  const auto full = [](double re, double pr) {
    return 0.42 * std::pow(pr, 0.20) + 0.57 * std::cbrt(pr) * std::sqrt(re);
  };
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  std::vector<double> prandtl;
  for (int i = 0; i <= 20000; ++i) prandtl.push_back(0.6 + 14.0 * i / 20000.0);
  for (const double pr : {std::numeric_limits<double>::denorm_min(), 1e-300,
                          1e-3, 1.0, 100.0, 1e300})
    prandtl.push_back(pr);
  for (const double pr : prandtl) {
    ASSERT_EQ(bits(kramers_nusselt(0.0, pr)), bits(full(0.0, pr))) << pr;
    ASSERT_EQ(bits(kramers_nusselt(-0.0, pr)), bits(full(-0.0, pr))) << pr;
  }
  // Where the forced term is not zero, or Pr is infinite, the full formula
  // runs: 0.57·cbrt(inf)·sqrt(0) is NaN.
  EXPECT_TRUE(std::isnan(
      kramers_nusselt(0.0, std::numeric_limits<double>::infinity())));
  EXPECT_EQ(bits(kramers_nusselt(1e-300, 7.0)), bits(full(1e-300, 7.0)));
}

TEST(KramersNusselt, GrowsAsSqrtRe) {
  const double pr = 7.0;
  const double nu_lo = kramers_nusselt(4.0, pr) - kramers_nusselt(0.0, pr);
  const double nu_hi = kramers_nusselt(16.0, pr) - kramers_nusselt(0.0, pr);
  EXPECT_NEAR(nu_hi / nu_lo, 2.0, 1e-9);
}

TEST(KramersNusselt, RejectsNonPhysical) {
  EXPECT_THROW((void)kramers_nusselt(-1.0, 7.0), std::invalid_argument);
  EXPECT_THROW((void)kramers_nusselt(1.0, 0.0), std::invalid_argument);
}

TEST(FilmCoefficient, WaterVastlyExceedsAir) {
  const auto w = water_properties(celsius(15.0));
  const auto a = air_properties(celsius(15.0));
  const double hw = film_coefficient(w, metres_per_second(1.0), kWire);
  const double ha = film_coefficient(a, metres_per_second(1.0), kWire);
  EXPECT_GT(hw / ha, 20.0);
}

TEST(KingCoefficients, ExponentIsHalf) {
  const auto w = water_properties(celsius(15.0));
  EXPECT_DOUBLE_EQ(king_coefficients(w, kWire).n, 0.5);
}

TEST(KingCoefficients, ConsistentWithConvectiveLoss) {
  const auto w = water_properties(celsius(15.0));
  const auto [a, b, n] = king_coefficients(w, kWire);
  const double v = 1.3;
  const auto q =
      convective_loss(w, kWire, metres_per_second(v), util::kelvin(5.0));
  EXPECT_NEAR(q.value(), 5.0 * (a + b * std::pow(v, n)), 1e-12);
}

TEST(ConvectiveLoss, ZeroOvertemperatureMeansZeroLoss) {
  const auto w = water_properties(celsius(15.0));
  EXPECT_DOUBLE_EQ(
      convective_loss(w, kWire, metres_per_second(1.0), util::kelvin(0.0)).value(),
      0.0);
}

TEST(ConvectiveLoss, SymmetricInFlowDirection) {
  const auto w = water_properties(celsius(15.0));
  EXPECT_DOUBLE_EQ(
      convective_loss(w, kWire, metres_per_second(1.0), util::kelvin(5.0)).value(),
      convective_loss(w, kWire, metres_per_second(-1.0), util::kelvin(5.0))
          .value());
}

TEST(WireGeometry, SurfaceAreaIsLateralCylinder) {
  EXPECT_NEAR(kWire.surface_area().value(),
              3.14159265358979 * 4e-6 * 300e-6, 1e-15);
}

/// King's-law shape property: Q(ΔT, v) strictly increasing in both arguments.
class KingMonotoneTest
    : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(KingMonotoneTest, LossIncreasesWithSpeedAndOvertemp) {
  const auto [v, dt] = GetParam();
  const auto w = water_properties(celsius(15.0));
  const double q0 =
      convective_loss(w, kWire, metres_per_second(v), util::kelvin(dt)).value();
  const double q_faster =
      convective_loss(w, kWire, metres_per_second(v + 0.1), util::kelvin(dt))
          .value();
  const double q_hotter =
      convective_loss(w, kWire, metres_per_second(v), util::kelvin(dt + 1.0))
          .value();
  EXPECT_GT(q_faster, q0);
  EXPECT_GT(q_hotter, q0);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, KingMonotoneTest,
    ::testing::Values(std::pair{0.0, 2.0}, std::pair{0.05, 5.0},
                      std::pair{0.5, 5.0}, std::pair{1.0, 10.0},
                      std::pair{2.5, 5.0}, std::pair{2.5, 15.0}));

}  // namespace
}  // namespace aqua::phys
