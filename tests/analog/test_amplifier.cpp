#include "analog/amplifier.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <vector>

namespace aqua::analog {
namespace {

using util::hertz;
using util::millivolts;
using util::Rng;
using util::Seconds;
using util::volts;

InstrumentAmpSpec quiet_spec() {
  InstrumentAmpSpec s;
  s.offset_sigma = volts(0.0);
  s.noise_density = 0.0;
  s.flicker_density_1hz = 0.0;
  return s;
}

// Amplifies `in` through the amp's kernels the way a fused frame loop does:
// noise and stage kernels captured once, white then flicker drawn per sample,
// both committed back at the end of the block.
void run_block(InstrumentAmp& amp, std::span<const double> in,
               std::span<double> out, Seconds dt) {
  auto noise = amp.begin_noise_block();
  auto k = amp.begin_block(dt, util::celsius(25.0));
  for (size_t i = 0; i < in.size(); ++i) {
    const double white = noise.white.draw();
    const double flicker = noise.flicker.draw();
    out[i] = k.step(in[i], white, flicker);
  }
  amp.commit_noise_block(noise);
  amp.commit_block(k);
}

TEST(InstrumentAmp, DcGainApplied) {
  InstrumentAmp amp{quiet_spec(), hertz(1e6), Rng{1}};
  double y = 0.0;
  for (int i = 0; i < 10000; ++i)
    y = amp.step(millivolts(10.0), Seconds{1e-6});
  EXPECT_NEAR(y, 0.16, 1e-4);  // 10 mV · 16
}

TEST(InstrumentAmp, GainProgrammable) {
  InstrumentAmp amp{quiet_spec(), hertz(1e6), Rng{1}};
  amp.set_gain(64.0);
  double y = 0.0;
  for (int i = 0; i < 10000; ++i) y = amp.step(millivolts(5.0), Seconds{1e-6});
  EXPECT_NEAR(y, 0.32, 1e-3);
  EXPECT_THROW(amp.set_gain(0.0), std::invalid_argument);
}

TEST(InstrumentAmp, SaturatesAtRails) {
  InstrumentAmp amp{quiet_spec(), hertz(1e6), Rng{1}};
  double y = 0.0;
  for (int i = 0; i < 10000; ++i) y = amp.step(volts(1.0), Seconds{1e-6});
  EXPECT_DOUBLE_EQ(y, 1.65);  // rail/2 of 3.3 V
  EXPECT_TRUE(amp.saturated());
}

TEST(InstrumentAmp, BandwidthLimitsStepResponse) {
  InstrumentAmpSpec s = quiet_spec();
  s.bandwidth = hertz(1000.0);  // tau ≈ 159 µs
  InstrumentAmp amp{s, hertz(1e6), Rng{1}};
  const double y1 = amp.step(millivolts(10.0), Seconds{1e-6});
  EXPECT_LT(y1, 0.16 * 0.05);  // far from settled after 1 µs
}

TEST(InstrumentAmp, OffsetDrawnFromSpec) {
  InstrumentAmpSpec s = quiet_spec();
  s.offset_sigma = millivolts(1.0);
  double spread = 0.0;
  for (int seed = 0; seed < 50; ++seed) {
    InstrumentAmp amp{s, hertz(1e6), Rng{static_cast<std::uint64_t>(seed)}};
    spread = std::max(spread, std::abs(amp.offset().value()));
  }
  EXPECT_GT(spread, 0.5e-3);  // some parts near ±1 sigma
  EXPECT_LT(spread, 5e-3);    // none absurdly far
}

TEST(InstrumentAmp, NoiseAppearsAtOutput) {
  InstrumentAmpSpec s = quiet_spec();
  s.noise_density = 100e-9;
  InstrumentAmp amp{s, hertz(1e6), Rng{7}};
  util::Rng unused{0};
  double sum2 = 0.0;
  // settle the pole first
  for (int i = 0; i < 2000; ++i) (void)amp.step(volts(0.0), Seconds{1e-6});
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    const double y = amp.step(volts(0.0), Seconds{1e-6});
    sum2 += y * y;
  }
  EXPECT_GT(std::sqrt(sum2 / kN), 1e-5);  // clearly nonzero
}

TEST(InstrumentAmp, OffsetDriftWithAmbient) {
  InstrumentAmpSpec s = quiet_spec();
  s.offset_drift_per_k = 1e-3;
  InstrumentAmp amp{s, hertz(1e6), Rng{1}};
  double y_cold = 0.0, y_hot = 0.0;
  for (int i = 0; i < 5000; ++i)
    y_cold = amp.step(volts(0.0), Seconds{1e-6}, util::celsius(25.0));
  for (int i = 0; i < 5000; ++i)
    y_hot = amp.step(volts(0.0), Seconds{1e-6}, util::celsius(35.0));
  EXPECT_NEAR(y_hot - y_cold, 16.0 * 1e-3 * 10.0, 1e-3);
}

TEST(InstrumentAmp, ProcessBlockBitIdenticalToStep) {
  // Full-noise spec: the block path must consume the white and flicker
  // streams in exactly the scalar interleaving order.
  InstrumentAmpSpec s;  // defaults: noise + flicker + offset all live
  InstrumentAmp scalar{s, hertz(256e3), Rng{21}};
  InstrumentAmp block{s, hertz(256e3), Rng{21}};
  const Seconds dt{1.0 / 256e3};
  std::vector<double> in(3 * 128), expect(in.size()), got(in.size());
  for (size_t i = 0; i < in.size(); ++i)
    in[i] = 5e-3 * std::sin(0.013 * static_cast<double>(i));
  for (size_t i = 0; i < in.size(); ++i)
    expect[i] = scalar.step(volts(in[i]), dt);
  for (int f = 0; f < 3; ++f)
    run_block(block, std::span<const double>{in}.subspan(128u * f, 128),
              std::span<double>{got}.subspan(128u * f, 128), dt);
  for (size_t i = 0; i < in.size(); ++i)
    EXPECT_EQ(expect[i], got[i]) << "sample " << i;
  EXPECT_EQ(scalar.saturated(), block.saturated());
}

TEST(InstrumentAmp, BlockKernelCarriesSaturationState) {
  InstrumentAmp scalar{quiet_spec(), hertz(1e6), Rng{1}};
  InstrumentAmp block{quiet_spec(), hertz(1e6), Rng{1}};
  const Seconds dt{1e-6};
  std::vector<double> in(256, 1.0);  // 1 V · gain 16 slams the 1.65 V rail
  std::vector<double> out(in.size());
  for (double x : in) (void)scalar.step(volts(x), dt);
  run_block(block, in, out, dt);
  EXPECT_TRUE(block.saturated());
  EXPECT_EQ(scalar.saturated(), block.saturated());
}

TEST(InstrumentAmp, RejectsBadGainSpec) {
  InstrumentAmpSpec s = quiet_spec();
  s.gain = 0.0;
  EXPECT_THROW((InstrumentAmp{s, hertz(1e6), Rng{1}}), std::invalid_argument);
}

}  // namespace
}  // namespace aqua::analog
