#include "analog/dac.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include "state/serial.hpp"

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

double reference_static_output(const ThermometerDacSpec& spec,
                               const std::vector<double>& sums, int code) {
  const auto max_code = static_cast<double>(sums.size() - 2);
  const double frac = sums[static_cast<std::size_t>(code)] / sums.back() *
                      static_cast<double>(sums.size() - 1) / max_code;
  return spec.full_scale.value() * frac;
}

ThermometerDacSpec isif_spec(int bits) {
  return ThermometerDacSpec{bits, volts(8.0), 2e-4, Seconds{2e-6}};
}

std::uint64_t bits_of(double x) { return std::bit_cast<std::uint64_t>(x); }

std::vector<std::uint64_t> inl_bits(const ThermometerDac& dac) {
  std::vector<std::uint64_t> bits;
  for (int code = 0; code <= dac.max_code(); ++code)
    bits.push_back(bits_of(dac.inl_lsb(code)));
  return bits;
}

// Every code of a DAC in three read orders: ascending and descending, which
// first touch each page at its first and its last code, and a seeded
// shuffle, which first touches most pages mid-page.
std::vector<std::vector<int>> read_orders(int max_code, std::uint64_t seed) {
  std::vector<int> up;
  for (int code = 0; code <= max_code; ++code) up.push_back(code);
  std::vector<int> down(up.rbegin(), up.rend());
  std::vector<int> shuffled = up;
  Rng rng{seed};
  for (std::size_t i = shuffled.size() - 1; i > 0; --i)
    std::swap(shuffled[i], shuffled[rng.below(i + 1)]);
  return {up, down, shuffled};
}

TEST(ThermometerDac, LazyTableMatchesAConstructionTimeDraw) {
  // The first read draws the table from the DAC's own stream, and each page
  // is filled from its checkpoint when first read. Every width, in every
  // read order, must reproduce bit for bit the table drawn from a copy of
  // that stream: the static output after write_code and the INL at every
  // code. Widths below 9 bits are a single page. The second stream starts
  // with a Box-Muller spare cached, so every page checkpoint holds one.
  for (int bits = 4; bits <= 14; ++bits) {
    for (const std::uint64_t seed : {11ull, 2008ull}) {
      const ThermometerDacSpec spec = isif_spec(bits);
      Rng rng{seed};
      if (seed == 2008ull) (void)rng.gaussian();
      const std::vector<double> sums = reference_prefix_sums(spec, rng);
      int order_index = 0;
      for (const std::vector<int>& order :
           read_orders((1 << bits) - 1, seed + static_cast<unsigned>(bits))) {
        ThermometerDac dac{spec, rng};
        EXPECT_EQ(dac.filled_pages(), 0);
        for (const int code : order) {
          dac.write_code(code);
          ASSERT_EQ(bits_of(dac.static_output().value()),
                    bits_of(reference_static_output(spec, sums, code)))
              << bits << "-bit, seed " << seed << ", order " << order_index
              << ", code " << code;
          ASSERT_EQ(bits_of(dac.inl_lsb(code)),
                    bits_of(reference_inl_lsb(spec, sums, code)))
              << bits << "-bit, seed " << seed << ", order " << order_index
              << ", code " << code;
        }
        EXPECT_EQ(dac.page_count(), bits < 9 ? 1 : 1 << (bits - 9));
        EXPECT_EQ(dac.filled_pages(), dac.page_count());
        ++order_index;
      }
    }
  }
}

TEST(ThermometerDac, ReadsFillOnlyTheirOwnPages) {
  // A 12-bit DAC has 8 pages of 512 codes; a read fills the page it falls
  // in and nothing else, and reading a filled page again fills nothing.
  ThermometerDac dac{isif_spec(12), Rng{5}};
  EXPECT_EQ(dac.page_count(), 8);
  dac.write_code(700);
  (void)dac.static_output();
  EXPECT_EQ(dac.filled_pages(), 1);
  (void)dac.inl_lsb(1023);
  (void)dac.inl_lsb(512);
  EXPECT_EQ(dac.filled_pages(), 1);
  (void)dac.inl_lsb(1024);
  (void)dac.inl_lsb(4095);
  EXPECT_EQ(dac.filled_pages(), 3);
}

TEST(ThermometerDac, StepTracksEveryCodeChange) {
  // The step path recomputes the static output only when the code changes;
  // with an instant buffer it must land on static_output() bit for bit
  // through new codes, a return to an earlier code, a reset and a restore.
  ThermometerDacSpec spec = isif_spec(12);
  spec.settling_tau = Seconds{0.0};
  ThermometerDac dac{spec, Rng{13}};
  const auto settled = [&dac] {
    return bits_of(dac.step(Seconds{1e-6}).value()) ==
           bits_of(dac.static_output().value());
  };
  EXPECT_TRUE(settled());
  for (const int code : {300, 300, 2900, 300, 4095, 0, 1537}) {
    dac.write_code(code);
    EXPECT_TRUE(settled()) << "code " << code;
  }
  state::Writer w;
  dac.save_state(w);
  dac.reset();
  EXPECT_TRUE(settled());
  const std::vector<std::uint8_t> image = w.take();
  state::Reader r{image};
  dac.load_state(r);
  EXPECT_EQ(dac.code(), 1537);
  EXPECT_TRUE(settled());
}

TEST(ThermometerDac, LoadStateRefusesACodeOutOfRange) {
  // A restored code indexes the table, so one past either end is refused
  // and leaves the DAC as it was.
  ThermometerDac dac{isif_spec(10), Rng{17}};
  dac.write_code(200);
  for (const std::int32_t code : {-1, 1024}) {
    state::Writer w;
    w.i32(code);
    w.f64(1.0);
    const std::vector<std::uint8_t> image = w.take();
    state::Reader r{image};
    EXPECT_THROW(dac.load_state(r), state::Error) << "code " << code;
    EXPECT_EQ(dac.code(), 200);
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
  EXPECT_EQ(bits_of(drawn.static_output().value()), bits_of(out));

  ThermometerDac fresh{spec, Rng{31}};
  fresh.reset();
  EXPECT_EQ(inl_bits(fresh), before);
}

// Two threads make the first reads of a fresh DAC at the same time, each
// reading `codes[t]` in order; both must see the table a single-threaded
// read sees (TSan runs this too).
void race_first_reads(const std::vector<int> (&codes)[2]) {
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
      for (const int code : codes[t]) seen[t].push_back(bits_of(dac.inl_lsb(code)));
    });
  for (auto& r : readers) r.join();
  for (int t = 0; t < 2; ++t) {
    ASSERT_EQ(seen[t].size(), codes[t].size());
    for (std::size_t i = 0; i < codes[t].size(); ++i)
      ASSERT_EQ(seen[t][i], expected[static_cast<std::size_t>(codes[t][i])])
          << "thread " << t << ", code " << codes[t][i];
  }
}

std::vector<int> code_range(int first, int last) {
  std::vector<int> codes;
  for (int code = first; code <= last; ++code) codes.push_back(code);
  return codes;
}

TEST(ThermometerDac, ConcurrentFirstReadsDrawOnce) {
  // Both threads read the whole transfer, so they race for the draw and for
  // every page.
  const std::vector<int> whole = code_range(0, 4095);
  race_first_reads({whole, whole});
  // Both first-touch the same page, one from its top and one from its
  // bottom.
  const std::vector<int> page3 = code_range(1536, 2047);
  race_first_reads({page3, std::vector<int>(page3.rbegin(), page3.rend())});
  // They race for the draw, then fill disjoint pages side by side.
  race_first_reads({code_range(0, 2047), code_range(2048, 4095)});
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
