#include "dsp/cic.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

namespace aqua::dsp {
namespace {

TEST(Cic, OutputCadenceMatchesDecimation) {
  CicDecimator cic{3, 16};
  int outputs = 0;
  for (int i = 0; i < 160; ++i)
    if (cic.push(0.0)) ++outputs;
  EXPECT_EQ(outputs, 10);
}

TEST(Cic, ConstantInputMapsToItself) {
  CicDecimator cic{3, 32};
  double last = 0.0;
  for (int i = 0; i < 32 * 10; ++i)
    if (auto y = cic.push(0.73)) last = *y;
  EXPECT_NEAR(last, 0.73, 1e-9);
}

TEST(Cic, RawGainFormula) {
  const CicDecimator cic{3, 16, 2};
  EXPECT_DOUBLE_EQ(cic.raw_gain(), std::pow(32.0, 3.0));
}

TEST(Cic, OutputRate) {
  const CicDecimator cic{3, 64};
  EXPECT_DOUBLE_EQ(cic.output_rate(256000.0), 4000.0);
}

TEST(Cic, BitstreamAverageRecovered) {
  // A ±1 bitstream with 25% duty of +1 averages to −0.5.
  CicDecimator cic{2, 16};
  double last = 0.0;
  for (int i = 0; i < 16 * 20; ++i) {
    const double bit = (i % 4 == 0) ? 1.0 : -1.0;
    if (auto y = cic.push(bit)) last = *y;
  }
  EXPECT_NEAR(last, -0.5, 1e-9);
}

TEST(Cic, SincNullAtOutputRateMultiples) {
  // A sine exactly at the output rate (fs/R) lands on the first sinc null:
  // the decimated output is (nearly) constant.
  constexpr int kR = 32;
  CicDecimator cic{3, kR};
  double min_out = 1e9, max_out = -1e9;
  int count = 0;
  for (int i = 0; i < kR * 200; ++i) {
    const double x = std::sin(2.0 * 3.14159265358979 * i / kR);
    if (auto y = cic.push(x)) {
      ++count;
      if (count > 5) {  // skip the fill-in transient
        min_out = std::min(min_out, *y);
        max_out = std::max(max_out, *y);
      }
    }
  }
  EXPECT_LT(max_out - min_out, 1e-9);
}

TEST(Cic, ResetRestartsPhase) {
  CicDecimator cic{1, 4};
  (void)cic.push(1.0);
  cic.reset();
  int until_first = 0;
  while (!cic.push(1.0)) ++until_first;
  EXPECT_EQ(until_first, 3);  // 4th push yields the sample
}

TEST(Cic, DifferentialDelayTwoStillUnityDc) {
  CicDecimator cic{2, 8, 2};
  double last = 0.0;
  for (int i = 0; i < 8 * 20; ++i)
    if (auto y = cic.push(1.0)) last = *y;
  EXPECT_NEAR(last, 1.0, 1e-9);
}

TEST(Cic, Validation) {
  EXPECT_THROW((CicDecimator{0, 8}), std::invalid_argument);
  EXPECT_THROW((CicDecimator{9, 8}), std::invalid_argument);
  EXPECT_THROW((CicDecimator{3, 0}), std::invalid_argument);
  EXPECT_THROW((CicDecimator{3, 8, 3}), std::invalid_argument);
  EXPECT_NO_THROW((CicDecimator{3, 1}));  // R = 1 degenerates to pass-through
}

TEST(Cic, DecimationOnePassesInputsThrough) {
  // With R = 1 and M = 1 every integrator-comb pair telescopes to identity:
  // each push yields its own input back (to within the Q31 quantisation).
  CicDecimator cic{3, 1};
  for (int i = 0; i < 64; ++i) {
    const double x = std::sin(0.3 * i) * 0.8;
    const auto y = cic.push(x);
    ASSERT_TRUE(y.has_value()) << i;
    EXPECT_NEAR(*y, x, 1e-9) << i;
  }
}

TEST(Cic, OrderOneIsBoxcarAverage) {
  // An order-1 CIC is exactly the mean of each R-block of quantised inputs.
  constexpr int kR = 8;
  CicDecimator cic{1, kR};
  double sum = 0.0;
  for (int i = 0; i < kR; ++i) {
    const double x = 0.1 * (i - 3);
    sum += x;
    const auto y = cic.push(x);
    if (i < kR - 1) {
      EXPECT_FALSE(y.has_value());
    } else {
      ASSERT_TRUE(y.has_value());
      EXPECT_NEAR(*y, sum / kR, 1e-9);
    }
  }
}

TEST(Cic, OrderFourBitstreamAverageRecovered) {
  // High-order edge: (R·M)^4 gain, still unity at DC for a 50% duty stream.
  CicDecimator cic{4, 16};
  double last = 1.0;
  for (int i = 0; i < 16 * 30; ++i)
    if (auto y = cic.push((i % 2 == 0) ? 1.0 : -1.0)) last = *y;
  EXPECT_NEAR(last, 0.0, 1e-9);
}

TEST(Cic, ResetMidFrameDiscardsPartialAccumulation) {
  CicDecimator cic{2, 8};
  // Poison the integrators with a partial frame of full-scale input…
  for (int i = 0; i < 5; ++i) EXPECT_FALSE(cic.push(1.0).has_value());
  cic.reset();
  // …then a clean frame of a different DC must decode as if freshly built.
  CicDecimator fresh{2, 8};
  for (int i = 0; i < 8 * 4; ++i) {
    const auto a = cic.push(-0.25);
    const auto b = fresh.push(-0.25);
    ASSERT_EQ(a.has_value(), b.has_value()) << i;
    if (a) {
      EXPECT_EQ(*a, *b) << i;
    }
  }
}

TEST(Cic, PushBlockBitIdenticalToPush) {
  CicDecimator scalar{3, 16};
  CicDecimator block{3, 16};
  std::vector<double> x(16 * 12 + 7);  // deliberately not frame-aligned
  for (size_t i = 0; i < x.size(); ++i)
    x[i] = std::sin(0.2 * static_cast<double>(i));
  std::vector<double> expect;
  for (double v : x)
    if (auto y = scalar.push(v)) expect.push_back(*y);
  std::vector<double> got;
  // One kernel per 13-sample block, so block boundaries straddle decimation
  // frames and the phase must carry across commit/begin.
  for (size_t at = 0; at < x.size(); at += 13) {
    auto k = block.begin_block();
    for (size_t i = at; i < std::min(x.size(), at + 13); ++i)
      if (k.push(x[i])) got.push_back(block.emit(k));
    block.commit_block(k);
  }
  ASSERT_EQ(got.size(), expect.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(expect[i], got[i]) << i;
  }
}

TEST(Cic, KernelPushBitBitIdenticalToPush) {
  // push_bit() hoists the llround out of the fused loop for exact ±1.0
  // inputs; the integer words it integrates must match push(±1.0) exactly.
  CicDecimator scalar{3, 32};
  CicDecimator block{3, 32};
  auto k = block.begin_block();
  for (int i = 0; i < 32 * 6; ++i) {
    const double bit = ((i * 7) % 3 == 0) ? 1.0 : -1.0;
    const auto y = scalar.push(bit);
    const bool due = k.push_bit(bit);
    ASSERT_EQ(y.has_value(), due) << i;
    if (due) {
      EXPECT_EQ(*y, block.emit(k)) << i;
    }
  }
  block.commit_block(k);
  // Both sides agree on the next full frame too.
  for (int i = 0; i < 32; ++i) {
    const auto a = scalar.push(1.0);
    const auto b = block.push(1.0);
    ASSERT_EQ(a.has_value(), b.has_value()) << i;
    if (a) {
      EXPECT_EQ(*a, *b) << i;
    }
  }
}

class CicOrderSweep : public ::testing::TestWithParam<int> {};

TEST_P(CicOrderSweep, DcUnityForAllOrders) {
  CicDecimator cic{GetParam(), 16};
  double last = 0.0;
  for (int i = 0; i < 16 * (GetParam() + 5); ++i)
    if (auto y = cic.push(-0.4)) last = *y;
  EXPECT_NEAR(last, -0.4, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Orders, CicOrderSweep, ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace aqua::dsp
