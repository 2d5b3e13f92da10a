// The checkpoint twin of the reset⇒replay suite: snapshot a component
// MID-RUN, load the image into a freshly constructed twin, and require the
// two continuations to be bit-identical. Where reset⇒replay proves reset()
// rewinds completely, these prove save_state/load_state captures completely —
// a missed member shows up as a diverging continuation, not a crash.
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/cta.hpp"
#include "core/rig.hpp"
#include "fleet/sensor_node.hpp"
#include "isif/channel.hpp"
#include "obs/flight.hpp"
#include "state/checkpoint.hpp"
#include "state/serial.hpp"
#include "util/rng.hpp"

namespace aqua {
namespace {

using util::celsius;
using util::Rng;
using util::Seconds;

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

template <typename T>
std::vector<std::uint8_t> snapshot(const T& object) {
  state::Writer w;
  object.save_state(w);
  return w.take();
}

template <typename T>
void restore(T& object, const std::vector<std::uint8_t>& image) {
  state::Reader r{image};
  object.load_state(r);
  r.expect_end();  // a component must consume its image exactly
}

// ---------------------------------------------------------------------------
// InputChannel: run half the stimulus, snapshot, restore into a twin built
// from the SAME seed (construction-time part draws — amp offset, mismatch —
// are deliberately not serialized; the resume contract is "same binary, same
// config, same seed"), and compare the second half sample for sample.
// ---------------------------------------------------------------------------

std::vector<isif::ChannelSample> run_channel(isif::InputChannel& channel,
                                             int first_tick, int ticks) {
  std::vector<isif::ChannelSample> samples;
  const double dt = channel.tick_period().value();
  for (int i = first_tick; i < first_tick + ticks; ++i) {
    const double vin = 5e-3 * std::sin(2.0 * M_PI * 400.0 * i * dt);
    if (auto s = channel.tick(util::volts(vin))) samples.push_back(*s);
  }
  return samples;
}

TEST(CheckpointRoundTrip, InputChannelContinuationIsBitIdentical) {
  isif::InputChannel channel{isif::ChannelConfig{}, Rng{99}};
  (void)run_channel(channel, 0, 4096);
  const auto image = snapshot(channel);

  isif::InputChannel twin{isif::ChannelConfig{}, Rng{99}};
  restore(twin, image);

  const auto expected = run_channel(channel, 4096, 4096);
  const auto resumed = run_channel(twin, 4096, 4096);
  ASSERT_EQ(expected.size(), resumed.size());
  for (std::size_t k = 0; k < expected.size(); ++k) {
    ASSERT_EQ(expected[k].code, resumed[k].code) << "sample " << k;
    ASSERT_EQ(bits(expected[k].value), bits(resumed[k].value)) << "sample " << k;
    ASSERT_EQ(expected[k].overload, resumed[k].overload) << "sample " << k;
  }
}

// ---------------------------------------------------------------------------
// CtaAnemometer: commission + flow history, snapshot mid-run, twin must
// continue the loop observables bit for bit.
// ---------------------------------------------------------------------------

maf::Environment water(double v_mps) {
  maf::Environment env;
  env.speed = util::metres_per_second(v_mps);
  env.fluid_temperature = celsius(15.0);
  env.pressure = util::bar(2.0);
  return env;
}

struct LoopSample {
  double bridge;
  double filtered;
  double direction;
};

std::vector<LoopSample> run_loop(cta::CtaAnemometer& anemo, Seconds duration,
                                 const maf::Environment& env) {
  std::vector<LoopSample> out;
  const double dt = anemo.tick_period().value();
  const auto ticks = static_cast<long long>(duration.value() / dt);
  for (long long i = 0; i < ticks; ++i) {
    anemo.tick(env);
    out.push_back({anemo.bridge_voltage(), anemo.filtered_voltage(),
                   anemo.direction_signal()});
  }
  return out;
}

TEST(CheckpointRoundTrip, CtaLoopContinuationIsBitIdentical) {
  cta::CtaAnemometer anemo{maf::MafSpec{}, cta::coarse_isif_config(),
                           cta::CtaConfig{}, Rng{20260805}};
  anemo.commission(water(0.0), Seconds{0.3});
  (void)run_loop(anemo, Seconds{0.4}, water(0.8));
  const auto image = snapshot(anemo);

  cta::CtaAnemometer twin{maf::MafSpec{}, cta::coarse_isif_config(),
                          cta::CtaConfig{}, Rng{20260805}};
  restore(twin, image);

  const auto expected = run_loop(anemo, Seconds{0.4}, water(1.6));
  const auto resumed = run_loop(twin, Seconds{0.4}, water(1.6));
  ASSERT_EQ(expected.size(), resumed.size());
  for (std::size_t k = 0; k < expected.size(); ++k) {
    ASSERT_EQ(bits(expected[k].bridge), bits(resumed[k].bridge)) << "tick " << k;
    ASSERT_EQ(bits(expected[k].filtered), bits(resumed[k].filtered))
        << "tick " << k;
    ASSERT_EQ(bits(expected[k].direction), bits(resumed[k].direction))
        << "tick " << k;
  }
}

// ---------------------------------------------------------------------------
// SensorNode: the fleet unit, snapshotted between epochs — calibration fit,
// turbulence AR(1) state, self-test record and trace must all travel.
// ---------------------------------------------------------------------------

fleet::SensorNodeConfig node_config() {
  fleet::SensorNodeConfig cfg;
  cfg.isif = cta::coarse_isif_config();
  cfg.cta.output_cutoff = util::hertz(2.0);
  return cfg;
}

fleet::SensorNode make_node(std::uint64_t seed) {
  return fleet::SensorNode{3, fleet::SensorPlacement{}, node_config(),
                           util::millimetres(150.0), Rng::stream(seed, 3)};
}

void advance_node(fleet::SensorNode& node, int epochs) {
  fleet::PipeState state;
  state.mean_velocity_mps = 0.9;
  state.point_velocity_mps = 1.1;
  for (int i = 0; i < epochs; ++i) node.advance(state, Seconds{0.1});
}

void expect_traces_bit_identical(const std::vector<fleet::TraceSample>& a,
                                 const std::vector<fleet::TraceSample>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t k = 0; k < a.size(); ++k) {
    ASSERT_EQ(bits(a[k].t_s), bits(b[k].t_s)) << "epoch " << k;
    ASSERT_EQ(bits(a[k].bridge_voltage), bits(b[k].bridge_voltage))
        << "epoch " << k;
    ASSERT_EQ(bits(a[k].filtered_voltage), bits(b[k].filtered_voltage))
        << "epoch " << k;
    ASSERT_EQ(bits(a[k].estimate_mps), bits(b[k].estimate_mps)) << "epoch " << k;
    ASSERT_EQ(a[k].direction, b[k].direction) << "epoch " << k;
  }
}

TEST(CheckpointRoundTrip, SensorNodeContinuationIsBitIdentical) {
  fleet::SensorNode node = make_node(42);
  node.set_fit(cta::KingFit{0.9, 1.1, 0.5}, celsius(15.0));
  fleet::PipeState still;
  node.commission(still, Seconds{0.2});
  (void)node.run_self_test();
  advance_node(node, 3);
  const auto image = snapshot(node);

  // The twin is constructed from the SAME stream (identical one-time part
  // draws — the restore contract) but never commissioned or advanced.
  fleet::SensorNode twin = make_node(42);
  restore(twin, image);
  EXPECT_TRUE(twin.calibrated());
  ASSERT_TRUE(twin.last_self_test().has_value());
  EXPECT_EQ(twin.last_self_test()->pass, node.last_self_test()->pass);

  advance_node(node, 4);
  advance_node(twin, 4);
  expect_traces_bit_identical(node.trace(), twin.trace());
}

TEST(CheckpointRoundTrip, SensorNodeImageMustBeConsumedExactly) {
  fleet::SensorNode node = make_node(42);
  advance_node(node, 2);
  auto image = snapshot(node);
  image.push_back(0x00);  // trailing garbage
  fleet::SensorNode twin = make_node(42);
  state::Reader r{image};
  twin.load_state(r);
  EXPECT_THROW(r.expect_end(), state::Error);
}

TEST(CheckpointRoundTrip, SensorNodeTruncatedImageThrows) {
  fleet::SensorNode node = make_node(42);
  advance_node(node, 2);
  auto image = snapshot(node);
  image.resize(image.size() / 2);
  fleet::SensorNode twin = make_node(42);
  state::Reader r{image};
  EXPECT_THROW(twin.load_state(r), state::Error);
}

// ---------------------------------------------------------------------------
// FlightRecorder: ring contents, drop count and write cursor travel; labels
// are re-interned on load so the restored events stay printable forever.
// ---------------------------------------------------------------------------

TEST(CheckpointRoundTrip, FlightRecorderRoundTripsIncludingDrops) {
  obs::FlightRecorder recorder{4};
  for (int i = 0; i < 7; ++i)
    recorder.record(0.1 * i, obs::FlightRecordKind::kFault, i, i * 1.5,
                    "unit-test-label");
  ASSERT_EQ(recorder.size(), 4u);
  ASSERT_EQ(recorder.dropped(), 3u);
  const auto image = snapshot(recorder);

  obs::FlightRecorder twin{4};
  restore(twin, image);
  EXPECT_EQ(twin.dropped(), recorder.dropped());
  const auto expected = recorder.events();
  const auto loaded = twin.events();
  ASSERT_EQ(expected.size(), loaded.size());
  for (std::size_t k = 0; k < expected.size(); ++k) {
    EXPECT_EQ(bits(expected[k].t_s), bits(loaded[k].t_s));
    EXPECT_EQ(expected[k].kind, loaded[k].kind);
    EXPECT_EQ(expected[k].code, loaded[k].code);
    EXPECT_EQ(bits(expected[k].value), bits(loaded[k].value));
    ASSERT_NE(loaded[k].label, nullptr);
    EXPECT_STREQ(expected[k].label, loaded[k].label);
  }
}

// ---------------------------------------------------------------------------
// Golden fixture: a committed version-3 image of a mid-run SensorNode. If the
// wire format drifts without a kFormatVersion bump, this is the test that
// fails. Regenerate (after a DELIBERATE, version-bumped change) with
//   AQUA_REGEN_GOLDEN=1 ./test_state --gtest_filter='*Golden*'
// ---------------------------------------------------------------------------

#ifndef AQUA_GOLDEN_DIR
#define AQUA_GOLDEN_DIR "."
#endif

constexpr std::uint32_t kGoldenSection = state::section_id('N', 'O', 'D', 'E');

std::string golden_path() {
  return std::string(AQUA_GOLDEN_DIR) + "/sensor-node-v3.aqcp";
}

std::vector<std::uint8_t> make_golden_image() {
  fleet::SensorNode node = make_node(20260808);
  node.set_fit(cta::KingFit{0.9, 1.1, 0.5}, celsius(15.0));
  fleet::PipeState still;
  node.commission(still, Seconds{0.2});
  advance_node(node, 3);
  state::CheckpointWriter ck;
  node.save_state(ck.begin_section(kGoldenSection));
  ck.end_section();
  return ck.finish();
}

TEST(CheckpointGolden, CommittedImageStillRestoresBitIdentically) {
  if (std::getenv("AQUA_REGEN_GOLDEN") != nullptr) {
    state::write_file_atomic(golden_path(), make_golden_image());
    GTEST_SKIP() << "regenerated " << golden_path();
  }
  ASSERT_TRUE(std::filesystem::exists(golden_path()))
      << golden_path() << " missing — run with AQUA_REGEN_GOLDEN=1";
  const auto image = state::read_file(golden_path());
  const state::CheckpointReader ck{image};
  ASSERT_EQ(ck.version(), state::kFormatVersion);

  // Restore the committed snapshot and continue it; a node that reproduces
  // the same continuation as a freshly rebuilt snapshot proves the committed
  // byte layout still maps onto today's members.
  fleet::SensorNode restored = make_node(20260808);
  state::Reader r = ck.section(kGoldenSection);
  restored.load_state(r);
  r.expect_end();

  fleet::SensorNode reference = make_node(20260808);
  {
    const auto fresh = make_golden_image();
    const state::CheckpointReader fresh_ck{fresh};
    state::Reader fr = fresh_ck.section(kGoldenSection);
    reference.load_state(fr);
    fr.expect_end();
  }
  advance_node(restored, 4);
  advance_node(reference, 4);
  expect_traces_bit_identical(restored.trace(), reference.trace());
}

}  // namespace
}  // namespace aqua
