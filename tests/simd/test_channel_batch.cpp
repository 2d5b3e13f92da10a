// ChannelBatch: lane-remainder bit-identity (any group size produces exactly
// the W = 1 reference, including ragged tails), scalar resume after a batch
// frame, structural validation, and the batched thermal sweep's bit-identity
// against per-net stepping.
#include <bit>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "isif/channel.hpp"
#include "phys/thermal.hpp"
#include "simd/channel_batch.hpp"
#include "util/rng.hpp"

namespace aqua::simd {
namespace {

using isif::ChannelSample;
using isif::InputChannel;

std::vector<std::unique_ptr<InputChannel>> make_channels(int n,
                                                         std::uint64_t seed) {
  std::vector<std::unique_ptr<InputChannel>> channels;
  for (int i = 0; i < n; ++i)
    channels.push_back(std::make_unique<InputChannel>(
        isif::ChannelConfig{},
        util::Rng::stream(seed, static_cast<std::uint64_t>(i))));
  return channels;
}

std::vector<double> make_frame(int ticks, std::uint64_t seed) {
  util::Rng rng{seed};
  std::vector<double> frame(static_cast<std::size_t>(ticks));
  for (double& v : frame) v = rng.uniform(-4e-3, 4e-3);
  return frame;
}

void expect_samples_equal(const ChannelSample& a, const ChannelSample& b,
                          const char* label, int i) {
  EXPECT_EQ(a.code, b.code) << label << " channel " << i;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.value),
            std::bit_cast<std::uint64_t>(b.value))
      << label << " channel " << i;
  EXPECT_EQ(a.overload, b.overload) << label << " channel " << i;
}

TEST(ChannelBatch, AnyGroupSizeBitMatchesTheWidthOneReference) {
  // Group sizes around every lane width: singletons, W−1/W/W+1 and a ragged
  // 3W+2 must all produce the same bits as the per-channel W = 1 reference —
  // the chunking-invariance half of the batch determinism contract.
  const int decimation = isif::ChannelConfig{}.decimation;
  for (int width : {2, 4, 8}) {
    for (int n : {1, width - 1, width, width + 1, 3 * width + 2}) {
      auto reference = make_channels(n, 555);
      auto batched = make_channels(n, 555);
      for (int frame_idx = 0; frame_idx < 3; ++frame_idx) {
        const auto frame =
            make_frame(decimation, 1000u + static_cast<unsigned>(frame_idx));
        std::vector<ChannelFrameInput> ref_in, bat_in;
        for (int i = 0; i < n; ++i) {
          ref_in.push_back(ChannelFrameInput{reference[static_cast<std::size_t>(i)].get(), frame});
          bat_in.push_back(ChannelFrameInput{batched[static_cast<std::size_t>(i)].get(), frame});
        }
        std::vector<ChannelSample> ref_out(static_cast<std::size_t>(n)),
            bat_out(static_cast<std::size_t>(n));
        ChannelBatch::process_frames(ref_in, ref_out, 1);
        ChannelBatch::process_frames(bat_in, bat_out, width);
        for (int i = 0; i < n; ++i)
          expect_samples_equal(bat_out[static_cast<std::size_t>(i)],
                               ref_out[static_cast<std::size_t>(i)],
                               "batch vs W=1", i);
      }
    }
  }
}

TEST(ChannelBatch, ScalarResumesBitIdenticallyAfterBatchFrames) {
  // A channel pulled out of the batch (quarantine, regrouping) must continue
  // exactly where the lanes left it: batch frames then a W = 1 frame equals
  // the same channel advanced at W = 1 throughout.
  const int decimation = isif::ChannelConfig{}.decimation;
  const int n = 5;
  auto mixed = make_channels(n, 777);
  auto pure = make_channels(n, 777);
  const auto frame_a = make_frame(decimation, 1);
  const auto frame_b = make_frame(decimation, 2);

  auto run_frame = [&](auto& channels, const std::vector<double>& frame,
                       int width) {
    std::vector<ChannelFrameInput> in;
    for (auto& ch : channels) in.push_back(ChannelFrameInput{ch.get(), frame});
    std::vector<ChannelSample> out(channels.size());
    ChannelBatch::process_frames(in, out, width);
    return out;
  };
  (void)run_frame(mixed, frame_a, 4);
  (void)run_frame(pure, frame_a, 1);
  const auto mixed_out = run_frame(mixed, frame_b, 1);
  const auto pure_out = run_frame(pure, frame_b, 1);
  for (int i = 0; i < n; ++i)
    expect_samples_equal(mixed_out[static_cast<std::size_t>(i)],
                         pure_out[static_cast<std::size_t>(i)],
                         "batch-then-scalar vs scalar", i);
}

TEST(ChannelBatch, ValidatesSizesAndStructure) {
  auto channels = make_channels(2, 9);
  const auto frame =
      make_frame(isif::ChannelConfig{}.decimation, 3);
  std::vector<ChannelFrameInput> in;
  for (auto& ch : channels) in.push_back(ChannelFrameInput{ch.get(), frame});
  std::vector<ChannelSample> out(1);  // wrong size
  EXPECT_THROW(ChannelBatch::process_frames(in, out, 4), std::invalid_argument);
  out.resize(2);
  EXPECT_THROW(ChannelBatch::process_frames(in, out, 3), std::invalid_argument);

  // Frame length must equal the decimation.
  std::vector<double> short_frame(7, 0.0);
  in[1].differential_volts = short_frame;
  EXPECT_THROW(ChannelBatch::process_frames(in, out, 4), std::logic_error);

  // Structural mismatch within one lane group: different decimation. Width 2
  // so the two channels genuinely share a group — at width 4 they would both
  // take the one-at-a-time remainder path, where no cross-channel structure
  // exists to violate.
  isif::ChannelConfig other;
  other.decimation = 64;
  InputChannel odd{other, util::Rng{5}};
  const auto other_frame = make_frame(64, 4);
  in[1] = ChannelFrameInput{&odd, other_frame};
  EXPECT_THROW(ChannelBatch::process_frames(in, out, 2),
               std::invalid_argument);
}

TEST(ThermalStepBatch, BitIdenticalToPerNetStepping) {
  // N dies sharing one CSR adjacency relaxed in a single sweep must produce
  // exactly the temperatures of per-net step() calls, in any batch size.
  auto make_net = [](double power) {
    phys::ThermalNetwork net;
    const auto a = net.add_node(1e-6, util::celsius(25.0));
    const auto b = net.add_node(2e-6, util::celsius(24.0));
    const auto amb = net.add_boundary(util::celsius(15.0));
    net.connect(a, b, 1e-3);
    net.connect(b, amb, 2e-3);
    net.connect(a, amb, 5e-4);
    net.set_power(a, util::Watts{power});
    return net;
  };
  std::vector<phys::ThermalNetwork> batch_nets, ref_nets;
  for (int i = 0; i < 5; ++i) {
    batch_nets.push_back(make_net(1e-3 * (i + 1)));
    ref_nets.push_back(make_net(1e-3 * (i + 1)));
  }
  const util::Seconds dt{4e-6};
  std::vector<phys::ThermalNetwork*> ptrs;
  for (auto& net : batch_nets) ptrs.push_back(&net);
  for (int step = 0; step < 200; ++step) {
    phys::ThermalNetwork::step_batch(ptrs, dt);
    for (auto& net : ref_nets) net.step(dt);
  }
  for (std::size_t i = 0; i < batch_nets.size(); ++i)
    for (std::size_t node = 0; node < 3; ++node)
      EXPECT_EQ(std::bit_cast<std::uint64_t>(
                    batch_nets[i].temperature(node).value()),
                std::bit_cast<std::uint64_t>(
                    ref_nets[i].temperature(node).value()))
          << "net " << i << " node " << node;
}

TEST(ThermalStepBatch, RejectsTopologyMismatch) {
  phys::ThermalNetwork a, b;
  const auto a0 = a.add_node(1e-6, util::celsius(25.0));
  const auto a1 = a.add_boundary(util::celsius(15.0));
  a.connect(a0, a1, 1e-3);
  const auto b0 = b.add_node(1e-6, util::celsius(25.0));
  const auto b1 = b.add_node(1e-6, util::celsius(15.0));  // not a boundary
  b.connect(b0, b1, 1e-3);
  std::vector<phys::ThermalNetwork*> ptrs{&a, &b};
  EXPECT_THROW(phys::ThermalNetwork::step_batch(ptrs, util::Seconds{4e-6}),
               std::invalid_argument);
}

}  // namespace
}  // namespace aqua::simd
