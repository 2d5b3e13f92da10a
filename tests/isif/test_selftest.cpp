#include "isif/selftest.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "core/rig.hpp"

namespace aqua::isif {
namespace {

using util::Rng;

ChannelConfig quiet_config() {
  ChannelConfig c;
  c.amp.offset_sigma = util::volts(0.0);
  c.amp.noise_density = 0.0;
  c.amp.flicker_density_1hz = 0.0;
  return c;
}

TEST(SelfTest, HealthyChannelPasses) {
  InputChannel ch{quiet_config(), Rng{1}};
  const auto result = run_channel_self_test(ch);
  EXPECT_TRUE(result.pass);
  EXPECT_NEAR(result.measured_gain, 1.0, 0.02);
}

TEST(SelfTest, PassesWithRealisticNoise) {
  InputChannel ch{ChannelConfig{}, Rng{2}};
  const auto result = run_channel_self_test(ch);
  EXPECT_TRUE(result.pass);
}

TEST(SelfTest, DetectsDegradedAmplifierBandwidth) {
  // An aging/damaged readout stage whose bandwidth collapsed to 20 Hz
  // attenuates the 100 Hz test tone — the self-test flags it even though DC
  // conversion still "works".
  ChannelConfig degraded = quiet_config();
  degraded.amp.bandwidth = util::hertz(20.0);
  InputChannel ch{degraded, Rng{3}};
  const auto result = run_channel_self_test(ch);
  EXPECT_FALSE(result.pass);
  EXPECT_LT(result.measured_gain, 0.5);
}

TEST(SelfTest, DetectsDeadAdc) {
  // Saturated/stuck ΣΔ: emulate by driving amplitude far beyond the stable
  // range so the modulator clips and the tone amplitude collapses.
  InputChannel ch{quiet_config(), Rng{4}};
  ChannelSelfTest hot{};
  hot.amplitude = util::volts(0.5);  // × gain 16 = 8 V at a 1.6 V ADC
  const auto result = run_channel_self_test(ch, hot);
  EXPECT_FALSE(result.pass);
  EXPECT_LT(result.measured_gain, 0.9);
}

TEST(SelfTest, ChannelUsableAfterTest) {
  InputChannel ch{quiet_config(), Rng{5}};
  (void)run_channel_self_test(ch);
  // Normal conversion still works post-test (reset path).
  double acc = 0.0;
  int n = 0;
  for (int i = 0; i < 128 * 40; ++i)
    if (auto s = ch.tick(util::millivolts(5.0)))
      if (++n > 20) acc += s->value;
  EXPECT_NEAR(acc / (n - 20), 5e-3, 2e-4);
}

// The per-tick loop the self-test ran before it fed the stimulus a frame at
// a time: the reference its block path must reproduce bit for bit.
ChannelSelfTestResult scalar_self_test(InputChannel& channel,
                                       const ChannelSelfTest& config = {}) {
  const double out_rate = channel.output_rate().value();
  dsp::Nco stimulus{config.tone, channel.config().modulator_clock,
                    config.amplitude.value()};
  const auto samples_per_period =
      static_cast<std::size_t>(std::lround(out_rate / config.tone.value()));
  dsp::Goertzel detector{config.tone, util::Hertz{out_rate},
                         samples_per_period * config.periods};
  channel.reset();
  const long long warmup_ticks =
      channel.config().decimation * static_cast<long long>(samples_per_period);
  for (long long i = 0; i < warmup_ticks; ++i)
    (void)channel.tick(util::Volts{stimulus.next()});
  double measured = 0.0;
  for (bool complete = false; !complete;) {
    const auto sample = channel.tick(util::Volts{stimulus.next()});
    if (sample && detector.push(sample->value)) {
      measured = detector.amplitude();
      complete = true;
    }
  }
  channel.reset();
  const double gain = measured / config.amplitude.value();
  return {gain, gain - 1.0, std::abs(gain - 1.0) <= config.gain_tolerance};
}

TEST(SelfTest, BlockPathReproducesThePerTickReference) {
  ChannelFault stuck;
  stuck.stuck_high = 0x0100;
  stuck.stuck_low = 0x0003;
  ChannelFault offset;
  offset.offset_volts = 2e-3;
  struct Case {
    const char* name;
    ChannelConfig config;
  };
  const Case configs[] = {{"coarse", cta::coarse_isif_config().channel},
                          {"default", ChannelConfig{}}};
  for (const Case& c : configs) {
    for (const ChannelFault& fault : {ChannelFault{}, stuck, offset}) {
      InputChannel block{c.config, Rng{2008}};
      InputChannel reference{c.config, Rng{2008}};
      block.inject_fault(fault);
      reference.inject_fault(fault);
      const auto got = run_channel_self_test(block);
      const auto want = scalar_self_test(reference);
      SCOPED_TRACE(::testing::Message()
                   << c.name << " config, stuck_high " << fault.stuck_high
                   << ", offset " << fault.offset_volts);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.measured_gain),
                std::bit_cast<std::uint64_t>(want.measured_gain));
      EXPECT_EQ(got.pass, want.pass);
    }
  }
}

TEST(SelfTest, Validation) {
  InputChannel ch{quiet_config(), Rng{6}};
  ChannelSelfTest bad{};
  bad.tone = util::hertz(1e6);
  EXPECT_THROW((void)run_channel_self_test(ch, bad), std::invalid_argument);
  ChannelSelfTest short_test{};
  short_test.periods = 2;
  EXPECT_THROW((void)run_channel_self_test(ch, short_test),
               std::invalid_argument);
}

}  // namespace
}  // namespace aqua::isif
