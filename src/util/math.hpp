// math.hpp — small numerical toolbox shared across modules: polynomial
// evaluation, linear least squares (tiny dense solver), an exact sparse twin
// of the dense solver, 1-D minimisation and root bracketing, interpolation,
// step counts.
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "util/units.hpp"

namespace aqua::util {

/// Horner evaluation of c[0] + c[1]x + c[2]x^2 + ...
[[nodiscard]] double polyval(std::span<const double> coeffs, double x);

/// Linear interpolation of y over strictly increasing knots x; clamps outside.
[[nodiscard]] double interp1(std::span<const double> x, std::span<const double> y,
                             double xq);

/// Solves the dense linear system A·x = b in place (partial-pivot Gaussian
/// elimination). A is row-major n×n. Throws std::invalid_argument on a
/// (numerically) singular matrix.
[[nodiscard]] std::vector<double> solve_linear(std::vector<double> a,
                                               std::vector<double> b);

/// solve_linear restricted to the entries that can be nonzero. The structure
/// is fixed at construction; each solve() then runs solve_linear's partial-
/// pivot elimination in the same unknown order on the stored entries only,
/// in O(stored) memory with no n×n array.
///
/// Bit-identity contract: solve() returns exactly solve_linear(A, b), and
/// throws std::invalid_argument exactly when it does, provided
///  - every entry of A outside the structure is zero (a superset is fine),
///  - every entry of A and b is finite and none is -0.0, and
///  - no intermediate overflows.
/// It picks the same pivot on every column (the first row of largest
/// magnitude), applies the same `a -= f * b` to every entry the dense loop
/// changes, and back-substitutes each row in increasing column order. An
/// update it skips is `x -= f * (+0.0)` with |f| ≤ 1, which leaves a finite x
/// unchanged because no entry ever becomes -0.0. The dense loop's update of
/// the entry it eliminates is skipped too: no later step reads it.
///
/// Every row that can hold a nonzero in column k at step k may become that
/// step's pivot, so all of them are given the union of their patterns (the
/// static structure of George & Ng). The structure then covers any pivot
/// sequence, and a row swap only exchanges values.
class SparseSystem {
 public:
  using Entry = std::pair<std::size_t, std::size_t>;  ///< (row, column)

  /// Structure of an n×n matrix whose nonzeros lie in `entries` (any order,
  /// repeats allowed) or on the diagonal. Throws std::invalid_argument on an
  /// index ≥ n.
  SparseSystem(std::size_t n, std::span<const Entry> entries);

  [[nodiscard]] std::size_t size() const { return diag_.size(); }
  /// Entries stored: the structure, the diagonal and all possible fill.
  [[nodiscard]] std::size_t stored() const { return col_.size(); }
  /// Index of entry (row, col) in values(); throws std::out_of_range if the
  /// structure does not hold it.
  [[nodiscard]] std::size_t slot(std::size_t row, std::size_t col) const;
  /// The stored entries, indexed by slot(). solve() overwrites them.
  [[nodiscard]] std::span<double> values() { return val_; }
  /// Zeroes every stored entry, ready for the next assembly.
  void clear();
  /// Solves A·x = b for the assembled A, overwriting b with x.
  void solve(std::span<double> b);

 private:
  std::vector<std::size_t> row_start_;  // row r: slots [row_start_[r], row_start_[r+1])
  std::vector<std::size_t> col_;        // column of each slot, ascending in a row
  std::vector<std::size_t> diag_;       // slot of (r, r)
  std::vector<std::size_t> below_start_;  // column k: pivot candidates below k
  std::vector<std::size_t> below_row_;    // ascending within a column
  std::vector<std::size_t> below_slot_;   // slot of (below_row_[j], k)
  std::vector<double> val_;
};

/// Ordinary least squares: finds beta minimising |X·beta − y|² where X is
/// row-major with `cols` columns. Solves the normal equations; fine for the
/// small, well-conditioned fits used here (2–4 parameters).
[[nodiscard]] std::vector<double> least_squares(std::span<const double> x_rowmajor,
                                                std::span<const double> y,
                                                std::size_t cols);

/// Golden-section minimisation of a unimodal f over [lo, hi].
[[nodiscard]] double golden_minimize(const std::function<double(double)>& f,
                                     double lo, double hi, double tol = 1e-9);

/// Bisection root of f on [lo, hi]; requires a sign change.
[[nodiscard]] double bisect(const std::function<double(double)>& f, double lo,
                            double hi, double tol = 1e-12);

/// Steps of `period` that cover `duration`: the nearest whole number when the
/// quotient is within 1e-9 (relative) of it, otherwise rounded up. A duration
/// that is a whole number of periods up to rounding runs exactly that many
/// steps: 4.001 s of 62.5 µs ticks is 64016.00000000001, which ceil() alone
/// would make 64017. Throws std::invalid_argument for a negative or
/// non-finite duration, a non-positive or non-finite period, or a count that
/// does not fit a long long.
[[nodiscard]] long long steps_to_cover(Seconds duration, Seconds period);

/// Clamped linear map of x from [in_lo, in_hi] to [out_lo, out_hi].
[[nodiscard]] double remap_clamped(double x, double in_lo, double in_hi,
                                   double out_lo, double out_hi);

}  // namespace aqua::util
