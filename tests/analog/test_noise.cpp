#include "analog/noise.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <vector>

namespace aqua::analog {
namespace {

using util::hertz;
using util::Rng;

TEST(WhiteNoise, SigmaMatchesDensityAndRate) {
  // sigma = density·sqrt(fs/2).
  WhiteNoise n{20e-9, hertz(200e3), Rng{1}};
  EXPECT_NEAR(n.sigma(), 20e-9 * std::sqrt(100e3), 1e-12);
}

TEST(WhiteNoise, SampleStatistics) {
  WhiteNoise n{1e-3, hertz(2000.0), Rng{2}};
  double sum = 0.0, sum2 = 0.0;
  constexpr int kN = 40000;
  for (int i = 0; i < kN; ++i) {
    const double s = n.sample();
    sum += s;
    sum2 += s * s;
  }
  const double sigma_expected = 1e-3 * std::sqrt(1000.0);
  EXPECT_NEAR(sum / kN, 0.0, sigma_expected * 0.05);
  EXPECT_NEAR(std::sqrt(sum2 / kN), sigma_expected, sigma_expected * 0.03);
}

TEST(WhiteNoise, Validation) {
  EXPECT_THROW((WhiteNoise{-1.0, hertz(1000.0), Rng{1}}), std::invalid_argument);
  EXPECT_THROW((WhiteNoise{1.0, hertz(0.0), Rng{1}}), std::invalid_argument);
}

TEST(FlickerNoise, LowFrequencyPowerDominates) {
  // Split a long record into coarse bins: 1/f noise has larger variance in
  // slow averages than white noise of the same per-sample variance.
  FlickerNoise n{1e-6, hertz(1.0), hertz(1000.0), Rng{3}};
  std::vector<double> samples;
  for (int i = 0; i < 65536; ++i) samples.push_back(n.sample());
  // Variance of per-1024-sample means (captures low-frequency content).
  double var_means = 0.0, mean_all = 0.0;
  for (double s : samples) mean_all += s;
  mean_all /= samples.size();
  const int block = 1024;
  const int nblocks = samples.size() / block;
  for (int b = 0; b < nblocks; ++b) {
    double m = 0.0;
    for (int i = 0; i < block; ++i) m += samples[b * block + i];
    m /= block;
    var_means += (m - mean_all) * (m - mean_all);
  }
  var_means /= nblocks;
  // White noise would give var_means ≈ var_sample/1024; flicker is far above.
  double var_sample = 0.0;
  for (double s : samples) var_sample += (s - mean_all) * (s - mean_all);
  var_sample /= samples.size();
  EXPECT_GT(var_means, 10.0 * var_sample / block);
}

TEST(FlickerNoise, Validation) {
  EXPECT_THROW((FlickerNoise{1.0, hertz(0.0), hertz(100.0), Rng{1}}),
               std::invalid_argument);
}

// Fills `out` through the source's BlockKernel the way a fused frame loop
// draws: begin_block, one draw per sample, commit_block.
template <typename Noise>
void fill_block(Noise& noise, std::span<double> out) {
  auto k = noise.begin_block();
  for (double& x : out) x = k.draw();
  noise.commit_block(k);
}

TEST(WhiteNoise, FillBitIdenticalToSampleSequence) {
  WhiteNoise scalar{50e-9, hertz(256e3), Rng{11}};
  WhiteNoise block{50e-9, hertz(256e3), Rng{11}};
  std::vector<double> expect(300), got(300);
  for (double& x : expect) x = scalar.sample();
  // Uneven chunks so block boundaries land mid-stream.
  fill_block(block, std::span<double>{got}.subspan(0, 77));
  fill_block(block, std::span<double>{got}.subspan(77, 128));
  fill_block(block, std::span<double>{got}.subspan(205));
  for (size_t i = 0; i < expect.size(); ++i)
    EXPECT_EQ(expect[i], got[i]) << "draw " << i;
  // Streams stay aligned afterwards.
  EXPECT_EQ(scalar.sample(), block.sample());
}

TEST(FlickerNoise, FillBitIdenticalToSampleSequence) {
  FlickerNoise scalar{1e-6, hertz(1.0), hertz(256e3), Rng{12}};
  FlickerNoise block{1e-6, hertz(1.0), hertz(256e3), Rng{12}};
  std::vector<double> expect(300), got(300);
  for (double& x : expect) x = scalar.sample();
  fill_block(block, std::span<double>{got}.subspan(0, 33));
  fill_block(block, std::span<double>{got}.subspan(33, 128));
  fill_block(block, std::span<double>{got}.subspan(161));
  for (size_t i = 0; i < expect.size(); ++i)
    EXPECT_EQ(expect[i], got[i]) << "draw " << i;
  EXPECT_EQ(scalar.sample(), block.sample());
}

TEST(FlickerNoise, KernelSuffixCacheMatchesFullChain) {
  // The block kernel reuses suffix partial sums of the row chain; every
  // cached partial must be numerically identical to re-summing the chain, so
  // interleaving kernel draws with scalar draws stays aligned.
  FlickerNoise a{1e-6, hertz(1.0), hertz(256e3), Rng{13}};
  FlickerNoise b{1e-6, hertz(1.0), hertz(256e3), Rng{13}};
  for (int round = 0; round < 5; ++round) {
    auto k = b.begin_block();
    for (int i = 0; i < 37; ++i) EXPECT_EQ(a.sample(), k.draw());
    b.commit_block(k);
  }
}

TEST(ThermalNoise, JohnsonFormula) {
  // 1 kΩ at 300 K: √(4·1.38e-23·300·1000) ≈ 4.07 nV/√Hz.
  EXPECT_NEAR(thermal_noise_density(util::ohms(1000.0), util::Kelvin{300.0}),
              4.07e-9, 0.02e-9);
}

TEST(ThermalNoise, ScalesWithSqrtR) {
  const double n1 = thermal_noise_density(util::ohms(50.0), util::Kelvin{293.0});
  const double n4 = thermal_noise_density(util::ohms(200.0), util::Kelvin{293.0});
  EXPECT_NEAR(n4 / n1, 2.0, 1e-9);
}

TEST(ThermalNoise, Validation) {
  EXPECT_THROW(
      (void)thermal_noise_density(util::ohms(-1.0), util::Kelvin{300.0}),
      std::invalid_argument);
  EXPECT_THROW((void)thermal_noise_density(util::ohms(1.0), util::Kelvin{0.0}),
               std::invalid_argument);
}

}  // namespace
}  // namespace aqua::analog
