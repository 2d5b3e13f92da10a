#include "util/math.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>

namespace aqua::util {

double polyval(std::span<const double> coeffs, double x) {
  double acc = 0.0;
  for (std::size_t i = coeffs.size(); i-- > 0;) acc = acc * x + coeffs[i];
  return acc;
}

double interp1(std::span<const double> x, std::span<const double> y, double xq) {
  if (x.empty() || x.size() != y.size())
    throw std::invalid_argument("interp1: bad knot arrays");
  if (xq <= x.front()) return y.front();
  if (xq >= x.back()) return y.back();
  const auto it = std::upper_bound(x.begin(), x.end(), xq);
  const std::size_t hi = static_cast<std::size_t>(it - x.begin());
  const std::size_t lo = hi - 1;
  const double t = (xq - x[lo]) / (x[hi] - x[lo]);
  return y[lo] + t * (y[hi] - y[lo]);
}

std::vector<double> solve_linear(std::vector<double> a, std::vector<double> b) {
  const std::size_t n = b.size();
  if (a.size() != n * n) throw std::invalid_argument("solve_linear: shape mismatch");
  for (std::size_t col = 0; col < n; ++col) {
    // Partial pivot.
    std::size_t pivot = col;
    for (std::size_t r = col + 1; r < n; ++r)
      if (std::abs(a[r * n + col]) > std::abs(a[pivot * n + col])) pivot = r;
    if (std::abs(a[pivot * n + col]) < 1e-14)
      throw std::invalid_argument("solve_linear: singular matrix");
    if (pivot != col) {
      for (std::size_t c = 0; c < n; ++c) std::swap(a[pivot * n + c], a[col * n + c]);
      std::swap(b[pivot], b[col]);
    }
    for (std::size_t r = col + 1; r < n; ++r) {
      const double f = a[r * n + col] / a[col * n + col];
      if (f == 0.0) continue;
      for (std::size_t c = col; c < n; ++c) a[r * n + c] -= f * a[col * n + c];
      b[r] -= f * b[col];
    }
  }
  std::vector<double> x(n, 0.0);
  for (std::size_t r = n; r-- > 0;) {
    double acc = b[r];
    for (std::size_t c = r + 1; c < n; ++c) acc -= a[r * n + c] * x[c];
    x[r] = acc / a[r * n + r];
  }
  return x;
}

SparseSystem::SparseSystem(std::size_t n, std::span<const Entry> entries) {
  // Rows of A's pattern with the diagonal: sorted, without repeats.
  std::vector<Entry> pattern(entries.begin(), entries.end());
  for (std::size_t r = 0; r < n; ++r) pattern.push_back({r, r});
  std::sort(pattern.begin(), pattern.end());
  pattern.erase(std::unique(pattern.begin(), pattern.end()), pattern.end());
  std::vector<std::size_t> a_start(n + 1, 0);
  std::vector<std::size_t> a_col;
  a_col.reserve(pattern.size());
  for (const auto& [r, c] : pattern) {
    if (r >= n || c >= n)
      throw std::invalid_argument("SparseSystem: entry out of range");
    ++a_start[r + 1];
    a_col.push_back(c);
  }
  for (std::size_t r = 0; r < n; ++r) a_start[r + 1] += a_start[r];

  // Symbolic elimination. At step k the candidate rows are those whose
  // pattern holds column k; each gets the union U_k of their patterns, which
  // is row k's final pattern on and right of the diagonal. The rows below k
  // then share U_k \ {k} and wait, as group n + k, for its first column. A
  // row r untouched so far waits, as item r, for the first column of its
  // own row of A.
  std::vector<std::size_t> waiting(n, SIZE_MAX);  // per column: first item
  std::vector<std::size_t> next(2 * n, SIZE_MAX);  // per item: next in line
  const auto wait_for = [&](std::size_t column, std::size_t item) {
    next[item] = waiting[column];
    waiting[column] = item;
  };
  for (std::size_t r = 0; r < n; ++r) wait_for(a_col[a_start[r]], r);
  std::vector<std::size_t> u_start(n + 1, 0);
  std::vector<std::size_t> u_col;
  u_col.reserve(a_col.size());
  std::vector<std::size_t> members;
  below_start_.assign(n + 1, 0);
  std::vector<std::size_t> mark(n, SIZE_MAX);  // last step that took a column
  // Adds cols[first, last) to U_k; by index, as cols may be u_col itself.
  const auto take = [&](std::size_t k, const std::vector<std::size_t>& cols,
                        std::size_t first, std::size_t last) {
    for (; first != last; ++first)
      if (mark[cols[first]] != k) {
        mark[cols[first]] = k;
        u_col.push_back(cols[first]);
      }
  };
  for (std::size_t k = 0; k < n; ++k) {
    u_start[k] = u_col.size();
    below_start_[k] = below_row_.size();
    members.clear();
    for (std::size_t item = waiting[k]; item != SIZE_MAX; item = next[item]) {
      if (item < n) {
        take(k, a_col, a_start[item], a_start[item + 1]);
        if (item != k) members.push_back(item);
        continue;
      }
      const std::size_t g = item - n;
      take(k, u_col, u_start[g] + 1, u_start[g + 1]);
      for (std::size_t j = below_start_[g]; j < below_start_[g + 1]; ++j)
        if (below_row_[j] != k) members.push_back(below_row_[j]);
    }
    std::sort(u_col.begin() + static_cast<std::ptrdiff_t>(u_start[k]),
              u_col.end());
    std::sort(members.begin(), members.end());
    below_row_.insert(below_row_.end(), members.begin(), members.end());
    if (!members.empty()) wait_for(u_col[u_start[k] + 1], n + k);
  }
  u_start[n] = u_col.size();
  below_start_[n] = below_row_.size();

  // Row r stores its columns left of the diagonal (the steps k < r it was a
  // candidate in), then U_r.
  std::vector<std::size_t> left(n, 0);
  for (const std::size_t r : below_row_) ++left[r];
  row_start_.assign(n + 1, 0);
  diag_.resize(n);
  for (std::size_t r = 0; r < n; ++r) {
    diag_[r] = row_start_[r] + left[r];
    row_start_[r + 1] = diag_[r] + (u_start[r + 1] - u_start[r]);
  }
  col_.resize(row_start_[n]);
  for (std::size_t r = 0; r < n; ++r)
    std::copy(u_col.begin() + static_cast<std::ptrdiff_t>(u_start[r]),
              u_col.begin() + static_cast<std::ptrdiff_t>(u_start[r + 1]),
              col_.begin() + static_cast<std::ptrdiff_t>(diag_[r]));
  below_slot_.resize(below_row_.size());
  std::copy(row_start_.begin(), row_start_.end() - 1, left.begin());
  for (std::size_t k = 0; k < n; ++k)
    for (std::size_t j = below_start_[k]; j < below_start_[k + 1]; ++j) {
      const std::size_t s = left[below_row_[j]]++;
      col_[s] = k;
      below_slot_[j] = s;
    }
  val_.assign(col_.size(), 0.0);
}

std::size_t SparseSystem::slot(std::size_t row, std::size_t col) const {
  if (row < size()) {
    const auto first = col_.begin() + static_cast<std::ptrdiff_t>(row_start_[row]);
    const auto last = col_.begin() + static_cast<std::ptrdiff_t>(row_start_[row + 1]);
    const auto it = std::lower_bound(first, last, col);
    if (it != last && *it == col) return static_cast<std::size_t>(it - col_.begin());
  }
  throw std::out_of_range("SparseSystem: entry outside the structure");
}

void SparseSystem::clear() { std::fill(val_.begin(), val_.end(), 0.0); }

void SparseSystem::solve(std::span<double> b) {
  const std::size_t n = size();
  if (b.size() != n) throw std::invalid_argument("SparseSystem: shape mismatch");
  double* const a = val_.data();
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t d = diag_[k];
    const std::size_t end = row_start_[k + 1];
    // Partial pivot: solve_linear's scan, over the rows that can be nonzero.
    std::size_t pivot = k, pivot_slot = d;
    for (std::size_t j = below_start_[k]; j < below_start_[k + 1]; ++j)
      if (std::abs(a[below_slot_[j]]) > std::abs(a[pivot_slot])) {
        pivot = below_row_[j];
        pivot_slot = below_slot_[j];
      }
    if (std::abs(a[pivot_slot]) < 1e-14)
      throw std::invalid_argument("SparseSystem: singular matrix");
    if (pivot != k) {
      // The pivot row stores every column of row k's; both are zero beyond.
      std::size_t q = pivot_slot;
      for (std::size_t s = d; s < end; ++s, ++q) {
        while (col_[q] != col_[s]) ++q;
        std::swap(a[s], a[q]);
      }
      std::swap(b[pivot], b[k]);
    }
    for (std::size_t j = below_start_[k]; j < below_start_[k + 1]; ++j) {
      std::size_t q = below_slot_[j];
      const double f = a[q] / a[d];
      if (f == 0.0) continue;
      for (std::size_t s = d + 1; s < end; ++s) {
        do ++q;
        while (col_[q] != col_[s]);
        a[q] -= f * a[s];
      }
      b[below_row_[j]] -= f * b[k];
    }
  }
  for (std::size_t r = n; r-- > 0;) {
    double acc = b[r];
    for (std::size_t s = diag_[r] + 1; s < row_start_[r + 1]; ++s)
      acc -= a[s] * b[col_[s]];
    b[r] = acc / a[diag_[r]];
  }
}

std::vector<double> least_squares(std::span<const double> x_rowmajor,
                                  std::span<const double> y, std::size_t cols) {
  if (cols == 0 || x_rowmajor.size() != y.size() * cols)
    throw std::invalid_argument("least_squares: shape mismatch");
  const std::size_t rows = y.size();
  // Normal equations: (XᵀX) beta = Xᵀy.
  std::vector<double> xtx(cols * cols, 0.0);
  std::vector<double> xty(cols, 0.0);
  for (std::size_t r = 0; r < rows; ++r) {
    const double* row = &x_rowmajor[r * cols];
    for (std::size_t i = 0; i < cols; ++i) {
      xty[i] += row[i] * y[r];
      for (std::size_t j = 0; j < cols; ++j) xtx[i * cols + j] += row[i] * row[j];
    }
  }
  return solve_linear(std::move(xtx), std::move(xty));
}

double golden_minimize(const std::function<double(double)>& f, double lo,
                       double hi, double tol) {
  constexpr double kInvPhi = 0.6180339887498949;
  double a = lo, b = hi;
  double c = b - kInvPhi * (b - a);
  double d = a + kInvPhi * (b - a);
  double fc = f(c), fd = f(d);
  while (b - a > tol) {
    if (fc < fd) {
      b = d;
      d = c;
      fd = fc;
      c = b - kInvPhi * (b - a);
      fc = f(c);
    } else {
      a = c;
      c = d;
      fc = fd;
      d = a + kInvPhi * (b - a);
      fd = f(d);
    }
  }
  return 0.5 * (a + b);
}

double bisect(const std::function<double(double)>& f, double lo, double hi,
              double tol) {
  double flo = f(lo), fhi = f(hi);
  if (flo == 0.0) return lo;
  if (fhi == 0.0) return hi;
  if ((flo > 0.0) == (fhi > 0.0))
    throw std::invalid_argument("bisect: no sign change on interval");
  while (hi - lo > tol) {
    const double mid = 0.5 * (lo + hi);
    const double fm = f(mid);
    if (fm == 0.0) return mid;
    if ((fm > 0.0) == (flo > 0.0)) {
      lo = mid;
      flo = fm;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

long long steps_to_cover(Seconds duration, Seconds period) {
  if (!std::isfinite(duration.value()) || duration.value() < 0.0)
    throw std::invalid_argument(
        "steps_to_cover: duration must be finite and non-negative");
  if (!std::isfinite(period.value()) || !(period.value() > 0.0))
    throw std::invalid_argument(
        "steps_to_cover: period must be finite and positive");
  const double steps = duration.value() / period.value();
  if (!(steps < 0x1p63))  // ceil() of it would not fit a long long
    throw std::invalid_argument("steps_to_cover: too many steps");
  const double nearest = std::round(steps);
  if (std::abs(steps - nearest) <= 1e-9 * nearest)
    return static_cast<long long>(nearest);
  return static_cast<long long>(std::ceil(steps));
}

double remap_clamped(double x, double in_lo, double in_hi, double out_lo,
                     double out_hi) {
  const double t = std::clamp((x - in_lo) / (in_hi - in_lo), 0.0, 1.0);
  return out_lo + t * (out_hi - out_lo);
}

}  // namespace aqua::util
