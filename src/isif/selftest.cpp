#include "isif/selftest.hpp"

#include <cmath>
#include <stdexcept>
#include <vector>

namespace aqua::isif {

using util::Hertz;

ChannelSelfTestResult run_channel_self_test(InputChannel& channel,
                                            const ChannelSelfTest& config) {
  const double out_rate = channel.output_rate().value();
  if (config.tone.value() <= 0.0 || config.tone.value() >= 0.25 * out_rate)
    throw std::invalid_argument(
        "run_channel_self_test: tone must be well below the output Nyquist");
  if (config.periods < 4)
    throw std::invalid_argument("run_channel_self_test: need >= 4 periods");

  const Hertz mod_clock = channel.config().modulator_clock;
  dsp::Nco stimulus{config.tone, mod_clock, config.amplitude.value()};

  // Coherent Goertzel block on the decimated stream.
  const auto samples_per_period =
      static_cast<std::size_t>(std::lround(out_rate / config.tone.value()));
  const std::size_t block = samples_per_period * config.periods;
  dsp::Goertzel detector{config.tone, Hertz{out_rate}, block};

  channel.reset();
  // The stimulus runs one decimation frame at a time through the fused block
  // path, which is bit-identical to per-tick tick() calls (DESIGN.md §9); a
  // frame ends exactly on the tick that emits its decimated sample.
  std::vector<double> frame(
      static_cast<std::size_t>(channel.config().decimation));
  const auto next_sample = [&] {
    for (double& v : frame) v = stimulus.next();
    return channel.process_frame(frame);
  };
  // Let the pipeline fill before integrating (one extra period).
  for (std::size_t i = 0; i < samples_per_period; ++i) (void)next_sample();
  while (!detector.push(next_sample().value)) {
  }
  const double measured = detector.amplitude();
  channel.reset();

  const double gain = measured / config.amplitude.value();
  const double error = gain - 1.0;
  return ChannelSelfTestResult{gain, error,
                               std::abs(error) <= config.gain_tolerance};
}

}  // namespace aqua::isif
