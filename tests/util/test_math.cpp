#include "util/math.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>
#include <vector>

#include "util/rng.hpp"

namespace aqua::util {
namespace {

TEST(Polyval, EvaluatesHornerOrder) {
  const std::vector<double> c{1.0, -2.0, 3.0};  // 1 − 2x + 3x²
  EXPECT_DOUBLE_EQ(polyval(c, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(polyval(c, 2.0), 1.0 - 4.0 + 12.0);
}

TEST(Interp1, InterpolatesAndClamps) {
  const std::vector<double> x{0.0, 1.0, 3.0};
  const std::vector<double> y{0.0, 10.0, 30.0};
  EXPECT_DOUBLE_EQ(interp1(x, y, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(interp1(x, y, 2.0), 20.0);
  EXPECT_DOUBLE_EQ(interp1(x, y, -1.0), 0.0);   // clamp low
  EXPECT_DOUBLE_EQ(interp1(x, y, 99.0), 30.0);  // clamp high
}

TEST(Interp1, RejectsShapeMismatch) {
  const std::vector<double> x{0.0, 1.0};
  const std::vector<double> y{0.0};
  EXPECT_THROW((void)interp1(x, y, 0.5), std::invalid_argument);
}

TEST(SolveLinear, SolvesKnownSystem) {
  // 2x + y = 5; x − y = 1  →  x = 2, y = 1.
  const auto sol = solve_linear({2.0, 1.0, 1.0, -1.0}, {5.0, 1.0});
  ASSERT_EQ(sol.size(), 2u);
  EXPECT_NEAR(sol[0], 2.0, 1e-12);
  EXPECT_NEAR(sol[1], 1.0, 1e-12);
}

TEST(SolveLinear, PivotsOnZeroDiagonal) {
  // First diagonal entry is zero; needs the row swap.
  const auto sol = solve_linear({0.0, 1.0, 1.0, 0.0}, {3.0, 4.0});
  EXPECT_NEAR(sol[0], 4.0, 1e-12);
  EXPECT_NEAR(sol[1], 3.0, 1e-12);
}

TEST(SolveLinear, ThrowsOnSingular) {
  EXPECT_THROW((void)solve_linear({1.0, 2.0, 2.0, 4.0}, {1.0, 2.0}),
               std::invalid_argument);
}

// x from solve_linear, or nullopt where it throws invalid_argument.
std::optional<std::vector<double>> dense_solution(const std::vector<double>& a,
                                                  const std::vector<double>& b) {
  try {
    return solve_linear(a, b);
  } catch (const std::invalid_argument&) {
    return std::nullopt;
  }
}

// x from a SparseSystem storing A's nonzeros plus `extra` entries, or
// nullopt where it throws invalid_argument.
std::optional<std::vector<double>> sparse_solution(
    std::size_t n, const std::vector<double>& a, std::vector<double> b,
    const std::vector<SparseSystem::Entry>& extra) {
  std::vector<SparseSystem::Entry> entries = extra;
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c)
      if (a[r * n + c] != 0.0) entries.push_back({r, c});
  SparseSystem sys{n, entries};
  for (const auto& [r, c] : entries) sys.values()[sys.slot(r, c)] = a[r * n + c];
  try {
    sys.solve(b);
  } catch (const std::invalid_argument&) {
    return std::nullopt;
  }
  return b;
}

std::vector<std::uint64_t> bits(const std::vector<double>& x) {
  std::vector<std::uint64_t> out;
  for (const double v : x) out.push_back(std::bit_cast<std::uint64_t>(v));
  return out;
}

enum class Kind { kLaplacian, kPivoting, kCancellingFill, kSingular };

// One seeded system of the given kind. Entries are finite and never -0.0.
std::vector<double> random_matrix(Kind kind, std::size_t n, Rng& rng) {
  std::vector<double> a(n * n, 0.0);
  const auto at = [&](std::size_t r, std::size_t c) -> double& {
    return a[r * n + c];
  };
  const auto pick = [&](std::size_t m) {
    return static_cast<std::size_t>(rng.next_u64() % m);
  };
  switch (kind) {
    case Kind::kLaplacian:  // the nodal matrix: conductances + reservoirs
      for (std::size_t r = 0; r < n; ++r) {
        at(r, r) += rng.uniform(0.01, 1.0);
        for (std::size_t c = r + 1; c < n; ++c) {
          if (rng.uniform() > 3.0 / static_cast<double>(n)) continue;
          const double g = rng.uniform(0.1, 10.0);
          at(r, r) += g;
          at(c, c) += g;
          at(r, c) -= g;
          at(c, r) -= g;
        }
      }
      break;
    case Kind::kPivoting:  // no dominance; half the diagonals are zero
    case Kind::kSingular:
      for (std::size_t r = 0; r < n; ++r) {
        if (rng.uniform() < 0.5) at(r, r) = rng.uniform(-1.0, 1.0);
        for (std::size_t c = 0; c < n; ++c)
          if (c != r && rng.uniform() < 0.2) at(r, c) = rng.uniform(-4.0, 4.0);
      }
      if (kind == Kind::kSingular && n > 1) {
        const std::size_t src = pick(n);
        const std::size_t dst = (src + 1 + pick(n - 1)) % n;
        for (std::size_t c = 0; c < n; ++c) at(dst, c) = at(src, c);
      } else if (kind == Kind::kSingular) {
        at(0, 0) = 0.0;
      }
      break;
    case Kind::kCancellingFill: {
      // [I C'; C E]-shaped: eliminating the identity block adds -0.5·(+1)
      // and -0.5·(-1) to the same entry of the lower block, which A does
      // not hold, so that fill cancels to exactly +0.0.
      const std::size_t m = n / 2;
      for (std::size_t r = 0; r < m; ++r) at(r, r) = 1.0;
      for (std::size_t r = m; r < n; ++r) {
        at(r, r) = rng.uniform(3.0, 5.0);
        if (m < 2) continue;
        const std::size_t k1 = pick(m);
        const std::size_t k2 = (k1 + 1 + pick(m - 1)) % m;
        std::size_t c = m + pick(n - m);
        if (c == r) c = m + (c - m + 1) % (n - m);
        if (c == r) continue;
        at(r, k1) = 0.5;
        at(r, k2) = 0.5;
        at(k1, c) = 1.0;
        at(k2, c) = -1.0;
      }
      for (std::size_t e = 0; e < n; ++e) {  // a little unstructured noise
        const std::size_t r = pick(n), c = pick(n);
        if (r != c && at(r, c) == 0.0 && r >= m && c >= m)
          at(r, c) = rng.uniform(-0.5, 0.5);
      }
      break;
    }
  }
  return a;
}

TEST(SparseSystem, MatchesSolveLinearBitForBit) {
  constexpr Kind kKinds[] = {Kind::kLaplacian, Kind::kPivoting,
                             Kind::kCancellingFill, Kind::kSingular};
  Rng rng{2008};
  int solved = 0, singular = 0;
  for (int trial = 0; trial < 600; ++trial) {
    const Kind kind = kKinds[trial % 4];
    const std::size_t n = 1 + static_cast<std::size_t>(rng.next_u64() % 48);
    const std::vector<double> a = random_matrix(kind, n, rng);
    std::vector<double> b(n);
    for (double& v : b) v = rng.uniform(-10.0, 10.0);
    // Every other system also stores a few entries that stay zero.
    std::vector<SparseSystem::Entry> extra;
    for (std::size_t e = 0; trial % 2 == 1 && e < n; ++e)
      extra.push_back({rng.next_u64() % n, rng.next_u64() % n});

    const auto dense = dense_solution(a, b);
    const auto sparse = sparse_solution(n, a, b, extra);
    SCOPED_TRACE(::testing::Message() << "trial " << trial << ", n = " << n);
    ASSERT_EQ(dense.has_value(), sparse.has_value());
    if (kind == Kind::kSingular) {
      EXPECT_FALSE(dense.has_value());
    }
    if (!dense) {
      ++singular;
      continue;
    }
    ++solved;
    EXPECT_EQ(bits(*dense), bits(*sparse));
  }
  EXPECT_GE(solved, 380);  // the pivoting kind is sometimes singular too
  EXPECT_GE(singular, 150);
}

TEST(SparseSystem, StoresTheStructureAndItsFillOnly) {
  // A tridiagonal system: each step's candidates are rows k and k+1, so a
  // row stores one entry left of the diagonal and three on or right of it.
  constexpr std::size_t n = 1000;
  std::vector<SparseSystem::Entry> entries;
  for (std::size_t r = 0; r + 1 < n; ++r) {
    entries.push_back({r, r + 1});
    entries.push_back({r + 1, r});
  }
  SparseSystem sys{n, entries};
  EXPECT_LE(sys.stored(), 4 * n);
  EXPECT_EQ(sys.size(), n);
  EXPECT_NO_THROW((void)sys.slot(5, 7));  // fill from a possible row swap
  EXPECT_THROW((void)sys.slot(5, 9), std::out_of_range);
  EXPECT_THROW((void)sys.slot(n, 0), std::out_of_range);
  const std::vector<SparseSystem::Entry> bad{{0, n}};
  EXPECT_THROW((SparseSystem{n, bad}), std::invalid_argument);
  std::vector<double> wrong_size(n + 1, 1.0);
  EXPECT_THROW(sys.solve(wrong_size), std::invalid_argument);
}

TEST(LeastSquares, RecoversLine) {
  // y = 3 + 2x sampled exactly.
  std::vector<double> x, y;
  for (int i = 0; i < 10; ++i) {
    x.push_back(1.0);
    x.push_back(static_cast<double>(i));
    y.push_back(3.0 + 2.0 * i);
  }
  const auto beta = least_squares(x, y, 2);
  EXPECT_NEAR(beta[0], 3.0, 1e-9);
  EXPECT_NEAR(beta[1], 2.0, 1e-9);
}

TEST(LeastSquares, OverdeterminedMinimisesResidual) {
  // y = x with one outlier; slope should stay near 1 for many clean points.
  std::vector<double> x, y;
  for (int i = 0; i < 50; ++i) {
    x.push_back(static_cast<double>(i));
    y.push_back(static_cast<double>(i));
  }
  x.push_back(25.0);
  y.push_back(60.0);
  const auto beta = least_squares(x, y, 1);
  EXPECT_NEAR(beta[0], 1.0, 0.05);
}

TEST(GoldenMinimize, FindsParabolaMinimum) {
  const double x =
      golden_minimize([](double v) { return (v - 1.7) * (v - 1.7); }, -10, 10);
  EXPECT_NEAR(x, 1.7, 1e-6);
}

TEST(GoldenMinimize, HandlesAsymmetricUnimodal) {
  const double x = golden_minimize(
      [](double v) { return std::exp(v) - 2.0 * v; }, -2.0, 3.0);
  EXPECT_NEAR(x, std::log(2.0), 1e-6);
}

TEST(Bisect, FindsRoot) {
  const double r = bisect([](double x) { return x * x - 2.0; }, 0.0, 2.0);
  EXPECT_NEAR(r, std::sqrt(2.0), 1e-9);
}

TEST(Bisect, ThrowsWithoutSignChange) {
  EXPECT_THROW((void)bisect([](double x) { return x * x + 1.0; }, -1.0, 1.0),
               std::invalid_argument);
}

TEST(StepsToCover, NearWholeQuotientsRoundToTheWholeNumber) {
  // 4.001 s of 16 kHz ticks is 64016.00000000001 and of 8-tick frames
  // 8002.000000000001; 0.14 s of 0.02 s epochs is 7.000000000000001.
  EXPECT_EQ(steps_to_cover(Seconds{4.001}, Seconds{1.0 / 16000.0}), 64016);
  EXPECT_EQ(steps_to_cover(Seconds{4.001}, Seconds{8.0 / 16000.0}), 8002);
  EXPECT_EQ(steps_to_cover(Seconds{0.14}, Seconds{0.02}), 7);
  EXPECT_EQ(steps_to_cover(Seconds{0.3}, Seconds{0.1}), 3);  // 2.9999999999999996
  EXPECT_EQ(steps_to_cover(Seconds{1.0}, Seconds{0.25}), 4);
}

TEST(StepsToCover, FractionalQuotientsRoundUp) {
  EXPECT_EQ(steps_to_cover(Seconds{4.0011}, Seconds{1.0 / 16000.0}), 64018);
  EXPECT_EQ(steps_to_cover(Seconds{0.5}, Seconds{0.3}), 2);
  EXPECT_EQ(steps_to_cover(Seconds{1e-12}, Seconds{0.02}), 1);
  EXPECT_EQ(steps_to_cover(Seconds{0.0}, Seconds{0.02}), 0);
}

TEST(StepsToCover, RefusesInputsWithNoWholeCount) {
  // A NaN or infinite quotient would reach a long long through ceil(),
  // which is undefined behaviour; each such input is refused instead.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const Seconds epoch{0.02};
  EXPECT_THROW((void)steps_to_cover(Seconds{nan}, epoch), std::invalid_argument);
  EXPECT_THROW((void)steps_to_cover(Seconds{inf}, epoch), std::invalid_argument);
  EXPECT_THROW((void)steps_to_cover(Seconds{-0.5}, epoch),
               std::invalid_argument);
  for (const double period : {0.0, -0.02, nan, inf, -inf})
    EXPECT_THROW((void)steps_to_cover(Seconds{1.0}, Seconds{period}),
                 std::invalid_argument)
        << "period " << period;
  EXPECT_THROW((void)steps_to_cover(Seconds{0.0}, Seconds{0.0}),
               std::invalid_argument);
  // Finite inputs whose count overflows a long long.
  EXPECT_THROW((void)steps_to_cover(Seconds{1e300}, Seconds{1e-300}),
               std::invalid_argument);
  EXPECT_THROW((void)steps_to_cover(Seconds{1e19}, Seconds{1.0}),
               std::invalid_argument);
  EXPECT_EQ(steps_to_cover(Seconds{1e18}, Seconds{1.0}), 1000000000000000000);
}

TEST(RemapClamped, MapsAndClamps) {
  EXPECT_DOUBLE_EQ(remap_clamped(5.0, 0.0, 10.0, 0.0, 100.0), 50.0);
  EXPECT_DOUBLE_EQ(remap_clamped(-5.0, 0.0, 10.0, 0.0, 100.0), 0.0);
  EXPECT_DOUBLE_EQ(remap_clamped(15.0, 0.0, 10.0, 0.0, 100.0), 100.0);
}

}  // namespace
}  // namespace aqua::util
