#include "sim/integrator.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

namespace aqua::sim {
namespace {

using util::Seconds;

TEST(FirstOrderLag, AnalyticStepIsExact) {
  FirstOrderLag lag{0.0, Seconds{0.5}};
  lag.step(1.0, Seconds{0.5});  // one tau → 1 − e⁻¹
  EXPECT_NEAR(lag.value(), 1.0 - std::exp(-1.0), 1e-12);
}

TEST(FirstOrderLag, LargeStepLandsOnTarget) {
  FirstOrderLag lag{5.0, Seconds{1e-6}};
  lag.step(2.0, Seconds{1.0});
  EXPECT_NEAR(lag.value(), 2.0, 1e-12);
}

TEST(FirstOrderLag, ZeroTauTracksInstantly) {
  FirstOrderLag lag{0.0, Seconds{0.0}};
  lag.step(42.0, Seconds{1e-9});
  EXPECT_DOUBLE_EQ(lag.value(), 42.0);
}

TEST(FirstOrderLag, ResetAndRetune) {
  FirstOrderLag lag{0.0, Seconds{1.0}};
  lag.reset(3.0);
  EXPECT_DOUBLE_EQ(lag.value(), 3.0);
  lag.set_tau(Seconds{2.0});
  lag.step(3.0, Seconds{10.0});
  EXPECT_NEAR(lag.value(), 3.0, 1e-12);
  EXPECT_THROW(lag.set_tau(Seconds{-1.0}), std::invalid_argument);
}

TEST(FirstOrderLag, RejectsNegativeTau) {
  EXPECT_THROW((FirstOrderLag{0.0, Seconds{-0.1}}), std::invalid_argument);
}

}  // namespace
}  // namespace aqua::sim
