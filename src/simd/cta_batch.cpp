#include "simd/cta_batch.hpp"

#include <stdexcept>
#include <vector>

#include "phys/thermal.hpp"
#include "simd/channel_batch.hpp"

namespace aqua::simd {

void CtaFrameBatch::process_frame(std::span<cta::CtaAnemometer* const> loops,
                                  std::span<const maf::Environment> envs,
                                  int lane_width) {
  if (loops.size() != envs.size())
    throw std::invalid_argument("CtaFrameBatch: loops/envs size mismatch");
  if (loops.empty()) return;
  const std::size_t n = loops.size();

  const util::Seconds dt = loops[0]->tick_period();
  const int frame = loops[0]->platform().config().channel.decimation;
  for (cta::CtaAnemometer* loop : loops) {
    loop->begin_batch_frame();
    if (loop->tick_period().value() != dt.value() ||
        loop->platform().config().channel.decimation != frame)
      throw std::invalid_argument(
          "CtaFrameBatch: loops in a batch must share tick period and "
          "decimation");
  }

  // Per-frame scratch, reused across frames on this thread (a fleet chunk
  // calls this once per decimation frame per lane group).
  thread_local std::vector<phys::ThermalNetwork*> nets;
  thread_local std::vector<ChannelFrameInput> ch_in;
  thread_local std::vector<isif::ChannelSample> samples_a, samples_b;
  nets.clear();
  nets.reserve(n);
  for (cta::CtaAnemometer* loop : loops)
    nets.push_back(&loop->die().thermal_network());

  // Tick loop: scalar pre-thermal staging per loop, one batched thermal
  // relaxation over all dies (bit-identical per die to its own step()), then
  // the scalar post-thermal remainder.
  for (int i = 0; i < frame; ++i) {
    for (std::size_t j = 0; j < n; ++j)
      loops[j]->stage_tick_pre_thermal(envs[j], i);
    phys::ThermalNetwork::step_batch(nets, dt);
    for (std::size_t j = 0; j < n; ++j)
      loops[j]->stage_tick_post_thermal(envs[j]);
  }

  // Both channels of every loop through the cross-sensor lanes: channel 0
  // (measurement bridge) across all loops, then channel 1 (direction).
  samples_a.resize(n);
  samples_b.resize(n);
  for (int channel = 0; channel < 2; ++channel) {
    ch_in.clear();
    ch_in.reserve(n);
    for (std::size_t j = 0; j < n; ++j)
      ch_in.push_back(ChannelFrameInput{
          &loops[j]->platform().channel(channel),
          channel == 0 ? loops[j]->staged_diff_a() : loops[j]->staged_diff_b(),
          envs[j].fluid_temperature});
    ChannelBatch::process_frames(ch_in, channel == 0 ? std::span(samples_a)
                                                     : std::span(samples_b),
                                 lane_width);
  }

  for (std::size_t j = 0; j < n; ++j)
    loops[j]->finish_batch_frame(samples_a[j], samples_b[j]);
}

}  // namespace aqua::simd
