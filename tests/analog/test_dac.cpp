#include "analog/dac.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

namespace aqua::analog {
namespace {

using util::Rng;
using util::Seconds;
using util::volts;

ThermometerDacSpec ideal_spec(int bits = 12) {
  ThermometerDacSpec s;
  s.bits = bits;
  s.full_scale = volts(4.0);
  s.element_mismatch_sigma = 0.0;
  s.settling_tau = Seconds{0.0};
  return s;
}

TEST(ThermometerDac, IdealTransferEndpoints) {
  ThermometerDac dac{ideal_spec(), Rng{1}};
  dac.write_code(0);
  EXPECT_DOUBLE_EQ(dac.static_output().value(), 0.0);
  dac.write_code(dac.max_code());
  EXPECT_NEAR(dac.static_output().value(), 4.0, 1e-12);
}

TEST(ThermometerDac, MidCodeHalfScale) {
  ThermometerDac dac{ideal_spec(), Rng{1}};
  dac.write_code(2048);
  EXPECT_NEAR(dac.static_output().value(), 4.0 * 2048.0 / 4095.0, 1e-12);
}

TEST(ThermometerDac, CodeClamped) {
  ThermometerDac dac{ideal_spec(), Rng{1}};
  dac.write_code(99999);
  EXPECT_EQ(dac.code(), 4095);
  dac.write_code(-5);
  EXPECT_EQ(dac.code(), 0);
}

TEST(ThermometerDac, WriteVoltagePicksNearestCode) {
  ThermometerDac dac{ideal_spec(), Rng{1}};
  dac.write_voltage(volts(2.0));
  EXPECT_NEAR(dac.static_output().value(), 2.0, 4.0 / 4095.0);
}

TEST(ThermometerDac, MonotonicDespiteMismatch) {
  // Thermometer coding guarantees monotonicity even with big mismatch.
  ThermometerDacSpec s = ideal_spec(10);
  s.element_mismatch_sigma = 0.05;
  ThermometerDac dac{s, Rng{7}};
  double prev = -1.0;
  for (int code = 0; code <= dac.max_code(); ++code) {
    dac.write_code(code);
    const double v = dac.static_output().value();
    EXPECT_GE(v, prev) << "code " << code;
    prev = v;
  }
}

TEST(ThermometerDac, InlBoundedForSpecMismatch) {
  ThermometerDacSpec s = ideal_spec(12);
  s.element_mismatch_sigma = 2e-4;
  ThermometerDac dac{s, Rng{9}};
  double worst = 0.0;
  for (int code = 0; code <= dac.max_code(); code += 13)
    worst = std::max(worst, std::abs(dac.inl_lsb(code)));
  EXPECT_LT(worst, 0.5);  // well-behaved 12-bit part
  // And a zero-mismatch part has (numerically) zero INL.
  ThermometerDac perfect{ideal_spec(), Rng{1}};
  EXPECT_NEAR(perfect.inl_lsb(1234), 0.0, 1e-9);
}

TEST(ThermometerDac, SettlingFollowsFirstOrderLag) {
  ThermometerDacSpec s = ideal_spec();
  s.settling_tau = Seconds{1e-6};
  ThermometerDac dac{s, Rng{1}};
  dac.write_code(4095);
  const double v1 = dac.step(Seconds{1e-6}).value();  // one tau
  EXPECT_NEAR(v1, 4.0 * (1.0 - std::exp(-1.0)), 1e-6);
  for (int i = 0; i < 20; ++i) (void)dac.step(Seconds{1e-6});
  EXPECT_NEAR(dac.step(Seconds{1e-6}).value(), 4.0, 1e-6);
}

TEST(ThermometerDac, TenBitVariant) {
  ThermometerDac dac{ideal_spec(10), Rng{1}};
  EXPECT_EQ(dac.max_code(), 1023);
  dac.write_code(512);
  EXPECT_NEAR(dac.static_output().value(), 4.0 * 512.0 / 1023.0, 1e-12);
}

// The element-mismatch table as a construction-time draw builds it: one
// Gaussian per unit element from the part's stream, summed in element order.
std::vector<double> reference_prefix_sums(const ThermometerDacSpec& spec,
                                          Rng rng) {
  std::vector<double> sums{0.0};
  double c = 0.0;
  for (int i = 0; i < (1 << spec.bits); ++i) {
    c += 1.0 + rng.gaussian(0.0, spec.element_mismatch_sigma);
    sums.push_back(c);
  }
  return sums;
}

double reference_inl_lsb(const ThermometerDacSpec& spec,
                         const std::vector<double>& sums, int code) {
  const double fs = spec.full_scale.value();
  const auto max_code = static_cast<double>(sums.size() - 2);
  const double actual = fs * sums[static_cast<std::size_t>(code)] /
                        sums.back() * static_cast<double>(sums.size() - 1) /
                        max_code;
  const double ideal = fs * static_cast<double>(code) / max_code;
  return (actual - ideal) / (fs / max_code);
}

ThermometerDacSpec isif_spec(int bits) {
  return ThermometerDacSpec{bits, volts(8.0), 2e-4, Seconds{2e-6}};
}

std::vector<std::uint64_t> inl_bits(const ThermometerDac& dac) {
  std::vector<std::uint64_t> bits;
  for (int code = 0; code <= dac.max_code(); ++code)
    bits.push_back(std::bit_cast<std::uint64_t>(dac.inl_lsb(code)));
  return bits;
}

TEST(ThermometerDac, LazyTableMatchesAConstructionTimeDraw) {
  // The first read draws the table from the DAC's own stream, so it must
  // reproduce, bit for bit, the table drawn from a copy of that stream.
  for (const int bits : {12, 10}) {
    for (const std::uint64_t seed : {11ull, 2008ull}) {
      const ThermometerDacSpec spec = isif_spec(bits);
      const Rng rng{seed};
      const ThermometerDac dac{spec, rng};
      const std::vector<double> sums = reference_prefix_sums(spec, rng);
      for (int code = 0; code <= dac.max_code(); ++code)
        ASSERT_EQ(std::bit_cast<std::uint64_t>(dac.inl_lsb(code)),
                  std::bit_cast<std::uint64_t>(
                      reference_inl_lsb(spec, sums, code)))
            << bits << "-bit, seed " << seed << ", code " << code;
    }
  }
}

TEST(ThermometerDac, TableSurvivesReset) {
  // Element mismatch is a part property: a reset neither redraws a drawn
  // table nor changes the one a not-yet-drawn DAC will draw.
  const ThermometerDacSpec spec = isif_spec(12);
  ThermometerDac drawn{spec, Rng{31}};
  drawn.write_code(1234);
  const std::vector<std::uint64_t> before = inl_bits(drawn);
  const double out = drawn.static_output().value();
  drawn.reset();
  EXPECT_EQ(inl_bits(drawn), before);
  drawn.write_code(1234);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(drawn.static_output().value()),
            std::bit_cast<std::uint64_t>(out));

  ThermometerDac fresh{spec, Rng{31}};
  fresh.reset();
  EXPECT_EQ(inl_bits(fresh), before);
}

TEST(ThermometerDac, ConcurrentFirstReadsDrawOnce) {
  // Two threads make the first read of a fresh DAC at the same time: both
  // see the one table a single-threaded read sees (TSan runs this too).
  const ThermometerDacSpec spec = isif_spec(12);
  const std::vector<std::uint64_t> expected =
      inl_bits(ThermometerDac{spec, Rng{47}});
  const ThermometerDac dac{spec, Rng{47}};
  std::atomic<int> ready{0};
  std::vector<std::uint64_t> seen[2];
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t)
    readers.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < 2) {
      }
      seen[t] = inl_bits(dac);
    });
  for (auto& r : readers) r.join();
  EXPECT_EQ(seen[0], expected);
  EXPECT_EQ(seen[1], expected);
}

TEST(ThermometerDac, Validation) {
  ThermometerDacSpec bad = ideal_spec();
  bad.bits = 2;
  EXPECT_THROW((ThermometerDac{bad, Rng{1}}), std::invalid_argument);
  bad = ideal_spec();
  bad.full_scale = volts(0.0);
  EXPECT_THROW((ThermometerDac{bad, Rng{1}}), std::invalid_argument);
}

}  // namespace
}  // namespace aqua::analog
