#include "analog/rc_filter.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace aqua::analog {
namespace {

using util::hertz;
using util::Seconds;

TEST(RcLowpass, StepSettlesToInput) {
  RcLowpass f{hertz(1000.0), 2};
  double y = 0.0;
  for (int i = 0; i < 100000; ++i) y = f.step(2.0, Seconds{1e-6});
  EXPECT_NEAR(y, 2.0, 1e-9);
}

TEST(RcLowpass, SinglePoleTimeConstant) {
  RcLowpass f{hertz(1.0 / (2.0 * 3.14159265358979)), 1};  // tau = 1 s
  const double y = f.step(1.0, Seconds{1.0});
  EXPECT_NEAR(y, 1.0 - std::exp(-1.0), 1e-9);
}

TEST(RcLowpass, AttenuatesFastSine) {
  const double fs = 1e6, fin = 200e3, fc = 10e3;
  RcLowpass f{hertz(fc), 2};
  double peak = 0.0;
  for (int i = 0; i < 20000; ++i) {
    const double x = std::sin(2.0 * 3.14159265358979 * fin * i / fs);
    const double y = f.step(x, Seconds{1.0 / fs});
    if (i > 5000) peak = std::max(peak, std::abs(y));
  }
  // Two poles at 10 kHz against 200 kHz: ≈ (fc/f)² = 1/400.
  EXPECT_LT(peak, 0.01);
}

TEST(RcLowpass, MorePolesAttenuateMore) {
  const double fs = 1e6, fin = 100e3, fc = 10e3;
  RcLowpass f1{hertz(fc), 1};
  RcLowpass f2{hertz(fc), 2};
  double p1 = 0.0, p2 = 0.0;
  for (int i = 0; i < 20000; ++i) {
    const double x = std::sin(2.0 * 3.14159265358979 * fin * i / fs);
    const double y1 = f1.step(x, Seconds{1.0 / fs});
    const double y2 = f2.step(x, Seconds{1.0 / fs});
    if (i > 5000) {
      p1 = std::max(p1, std::abs(y1));
      p2 = std::max(p2, std::abs(y2));
    }
  }
  EXPECT_LT(p2, p1 * 0.5);
}

TEST(RcLowpass, ResetPresets) {
  RcLowpass f{hertz(100.0), 2};
  f.reset(3.0);
  EXPECT_DOUBLE_EQ(f.value(), 3.0);
  EXPECT_NEAR(f.step(3.0, Seconds{1e-3}), 3.0, 1e-12);
}

TEST(RcLowpass, ProcessBlockBitIdenticalToStep) {
  RcLowpass scalar{hertz(20e3), 2};
  RcLowpass block{hertz(20e3), 2};
  const Seconds dt{1.0 / 256e3};
  std::vector<double> x(3 * 128), expect(x.size());
  for (size_t i = 0; i < x.size(); ++i)
    x[i] = std::sin(0.05 * static_cast<double>(i)) +
           0.3 * std::sin(0.7 * static_cast<double>(i));
  for (size_t i = 0; i < x.size(); ++i) expect[i] = scalar.step(x[i], dt);
  // One kernel per 128-sample block, committed back between blocks.
  std::vector<double> got(x.size());
  for (size_t f = 0; f < 3; ++f) {
    auto k = block.begin_block(dt);
    for (size_t i = 128 * f; i < 128 * (f + 1); ++i) got[i] = k.step(x[i]);
    block.commit_block(k);
  }
  for (size_t i = 0; i < x.size(); ++i)
    EXPECT_EQ(expect[i], got[i]) << "sample " << i;
  EXPECT_EQ(scalar.value(), block.value());
}

TEST(RcLowpass, BlockKernelBitIdenticalToStepAllPoleCounts) {
  for (int poles = 1; poles <= 4; ++poles) {
    RcLowpass scalar{hertz(5e3), poles};
    RcLowpass block{hertz(5e3), poles};
    const Seconds dt{1e-6};
    auto k = block.begin_block(dt);
    for (int i = 0; i < 200; ++i) {
      const double x = std::cos(0.11 * i);
      EXPECT_EQ(scalar.step(x, dt), k.step(x)) << "poles " << poles
                                               << " sample " << i;
    }
    block.commit_block(k);
    EXPECT_EQ(scalar.value(), block.value()) << "poles " << poles;
  }
}

TEST(RcLowpass, Validation) {
  EXPECT_THROW((RcLowpass{hertz(0.0), 1}), std::invalid_argument);
  EXPECT_THROW((RcLowpass{hertz(10.0), 0}), std::invalid_argument);
  EXPECT_THROW((RcLowpass{hertz(10.0), 5}), std::invalid_argument);
}

}  // namespace
}  // namespace aqua::analog
