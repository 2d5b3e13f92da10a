#include "analog/sigma_delta.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <vector>

#include "dsp/cic.hpp"

namespace aqua::analog {
namespace {

using util::Rng;
using util::volts;

double decoded_dc(double input_v, int osr = 256, int blocks = 40,
                  std::uint64_t seed = 5) {
  SigmaDeltaModulator sd{{}, Rng{seed}};
  dsp::CicDecimator cic{3, osr};
  double last = 0.0;
  int n = 0;
  double acc = 0.0;
  for (int i = 0; i < osr * blocks; ++i) {
    if (auto y = cic.push(sd.step(volts(input_v)))) {
      last = *y;
      if (++n > blocks / 2) acc += last;
    }
  }
  return acc / (blocks - blocks / 2) * 1.6;  // scale back to volts (FS 1.6)
}

TEST(SigmaDelta, BitstreamIsBipolar) {
  SigmaDeltaModulator sd{{}, Rng{1}};
  for (int i = 0; i < 100; ++i) {
    const int b = sd.step(volts(0.3));
    EXPECT_TRUE(b == 1 || b == -1);
  }
}

TEST(SigmaDelta, DcRecoveredThroughCic) {
  for (double v : {-1.0, -0.4, 0.0, 0.25, 1.1}) {
    EXPECT_NEAR(decoded_dc(v), v, 0.004) << "input " << v;
  }
}

TEST(SigmaDelta, HighOsrResolvesSmallSteps) {
  // Two inputs 100 µV apart must decode distinguishably at OSR 256.
  const double a = decoded_dc(0.2000, 256, 80);
  const double b = decoded_dc(0.2004, 256, 80);
  EXPECT_GT(b - a, 0.0001);
}

TEST(SigmaDelta, OverloadFlagAboveStableRange) {
  SigmaDeltaModulator sd{{}, Rng{2}};
  (void)sd.step(volts(1.55));  // 0.97 FS
  EXPECT_TRUE(sd.overloaded());
  (void)sd.step(volts(0.5));
  EXPECT_FALSE(sd.overloaded());
}

TEST(SigmaDelta, ResetClearsState) {
  SigmaDeltaModulator sd{{}, Rng{3}};
  for (int i = 0; i < 100; ++i) (void)sd.step(volts(1.0));
  sd.reset();
  EXPECT_FALSE(sd.overloaded());
  // After reset the first bits match a freshly-built modulator fed the same
  // dither stream — we only assert it runs and stays bipolar.
  for (int i = 0; i < 10; ++i) {
    const int b = sd.step(volts(0.0));
    EXPECT_TRUE(b == 1 || b == -1);
  }
}

TEST(SigmaDelta, NoiseShapingMovesErrorOutOfBand) {
  // In-band error with decimation (low-pass) is much smaller than the raw
  // bitstream error: the defining property of ΣΔ.
  SigmaDeltaModulator sd{{}, Rng{4}};
  const double target = 0.3 / 1.6;
  double raw_err = 0.0;
  dsp::CicDecimator cic{3, 128};
  double dec_err = 0.0;
  int n_dec = 0;
  for (int i = 0; i < 128 * 60; ++i) {
    const int b = sd.step(volts(0.3));
    raw_err += std::abs(b - target);
    if (auto y = cic.push(b))
      if (++n_dec > 10) dec_err += std::abs(*y - target);
  }
  raw_err /= 128 * 60;
  dec_err /= (n_dec - 10);
  EXPECT_LT(dec_err, raw_err / 100.0);
}

TEST(SigmaDelta, IntegratorLeakDegradesDcAccuracySlightly) {
  SigmaDeltaSpec leaky{};
  leaky.integrator_leak = 1e-3;
  SigmaDeltaModulator sd{leaky, Rng{6}};
  dsp::CicDecimator cic{3, 256};
  double acc = 0.0;
  int n = 0;
  for (int i = 0; i < 256 * 40; ++i)
    if (auto y = cic.push(sd.step(volts(0.4))))
      if (++n > 20) acc += *y;
  const double decoded = acc / (n - 20) * 1.6;
  // Still close, but leak should not break it.
  EXPECT_NEAR(decoded, 0.4, 0.02);
}

// Modulates `in_volts` into ±1.0 `bits` through the modulator's kernels the
// way a fused frame loop does; returns the block's any-overload latch.
bool run_block(SigmaDeltaModulator& sd, std::span<const double> in_volts,
               std::span<double> bits) {
  auto dither = sd.begin_dither_block();
  auto k = sd.begin_block();
  for (size_t i = 0; i < in_volts.size(); ++i)
    bits[i] = k.step(in_volts[i], dither.draw());
  sd.commit_dither_block(dither);
  sd.commit_block(k);
  return k.any_overload;
}

TEST(SigmaDelta, ProcessBlockBitIdenticalToStep) {
  SigmaDeltaModulator scalar{{}, Rng{31}};
  SigmaDeltaModulator block{{}, Rng{31}};
  std::vector<double> in(3 * 128), bits(128);
  for (size_t i = 0; i < in.size(); ++i)
    in[i] = 0.4 * std::sin(0.021 * static_cast<double>(i));
  for (int f = 0; f < 3; ++f) {
    const auto chunk = std::span<const double>{in}.subspan(128u * f, 128);
    const bool any = run_block(block, chunk, bits);
    bool scalar_any = false;
    for (size_t i = 0; i < chunk.size(); ++i) {
      const int b = scalar.step(volts(chunk[i]));
      scalar_any = scalar_any || scalar.overloaded();
      EXPECT_EQ(static_cast<double>(b), bits[i])
          << "frame " << f << " sample " << i;
    }
    EXPECT_EQ(scalar_any, any) << "frame " << f;
    EXPECT_EQ(scalar.overloaded(), block.overloaded()) << "frame " << f;
  }
}

TEST(SigmaDelta, BlockOverloadLatchVsLastSample) {
  // A block whose middle sample overloads but whose last sample is fine:
  // the kernel's any_overload latches (the per-block flag), overloaded()
  // reports the last sample — matching the scalar semantics exactly.
  SigmaDeltaModulator sd{{}, Rng{32}};
  std::vector<double> in(16, 0.1), bits(16);
  in[7] = 1.58;  // ≈ 0.99 FS
  EXPECT_TRUE(run_block(sd, in, bits));
  EXPECT_FALSE(sd.overloaded());
}

TEST(SigmaDelta, FillDitherBitIdenticalToStepDraws) {
  // The dither kernel must hand a fused loop exactly the dither values the
  // scalar step() would draw, leaving the stream at the same position.
  SigmaDeltaSpec spec{};
  SigmaDeltaModulator a{spec, Rng{33}};
  SigmaDeltaModulator b{spec, Rng{33}};
  std::vector<double> dither(64);
  auto dk = b.begin_dither_block();
  for (double& x : dither) x = dk.draw();
  b.commit_dither_block(dk);
  std::vector<double> bits(64);
  for (size_t i = 0; i < dither.size(); ++i) {
    auto k = b.begin_block();
    bits[i] = k.step(0.2, dither[i]);
    b.commit_block(k);
    EXPECT_EQ(static_cast<double>(a.step(volts(0.2))), bits[i]) << i;
  }
}

TEST(SigmaDelta, Validation) {
  SigmaDeltaSpec bad{};
  bad.full_scale = volts(0.0);
  EXPECT_THROW((SigmaDeltaModulator{bad, Rng{1}}), std::invalid_argument);
}

class SigmaDeltaDcSweep : public ::testing::TestWithParam<double> {};

TEST_P(SigmaDeltaDcSweep, MonotoneDecoding) {
  const double v = GetParam();
  EXPECT_LT(decoded_dc(v), decoded_dc(v + 0.05));
}

INSTANTIATE_TEST_SUITE_P(InRange, SigmaDeltaDcSweep,
                         ::testing::Values(-1.2, -0.8, -0.4, 0.0, 0.4, 0.8, 1.1));

}  // namespace
}  // namespace aqua::analog
