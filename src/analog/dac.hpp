// dac.hpp — thermometer-coded DAC model. The ISIF "sensor driving stage ... is
// provided by a set of configurable 12 bit and 10 bit thermometer DACs"
// (paper §3); the CTA loop actuates the bridge supply through one of them.
// Thermometer coding makes the transfer inherently monotonic; element
// mismatch appears as INL, modelled as a seeded random walk over the unit
// elements. A first-order settling lag models the output buffer.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>

#include "sim/integrator.hpp"
#include "state/serial.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace aqua::analog {

struct ThermometerDacSpec {
  int bits = 12;                         ///< 12 or 10 on ISIF
  util::Volts full_scale = util::volts(8.0);
  double element_mismatch_sigma = 2e-4;  ///< relative unit-element spread
  util::Seconds settling_tau = util::Seconds{2e-6};
};

/// The element-mismatch draw is lazy. The DAC keeps its stream, and the first
/// read of the transfer (static_output, step, inl_lsb) draws every unit
/// element from a copy of it, in element order, keeping only the total weight
/// and a checkpoint (stream state and prefix sum) at the start of each
/// kPageCodes-code page. A page's prefix sums are written the first time a
/// code in it is read, by replaying its draws from the checkpoint, and kept.
/// Every sum is the same addition of the same draws as a construction-time
/// table, so every output is bit-identical. A DAC that is never read never
/// draws or stores anything; a closed loop holds only the pages of its
/// operating band. First reads and page fills are thread-safe.
class ThermometerDac {
 public:
  /// Codes per page: 512 prefix sums fill one 4 KB memory page.
  static constexpr int kPageCodes = 512;

  ThermometerDac(const ThermometerDacSpec& spec, util::Rng rng);

  /// Latches a new input code (clamped to [0, 2^bits − 1]).
  void write_code(int code) { code_ = std::clamp(code, 0, max_code()); }

  /// Convenience: latches the code closest to the requested voltage.
  void write_voltage(util::Volts v);

  /// Advances the output buffer by dt and returns the settled output voltage.
  util::Volts step(util::Seconds dt) {
    return step_with_decay(settling_decay(dt));
  }
  /// The output buffer's settling factor for a step of dt.
  [[nodiscard]] double settling_decay(util::Seconds dt) const {
    return buffer_.decay(dt);
  }
  /// step(dt) with `decay` == settling_decay(dt) supplied, for a caller that
  /// steps one dt many times. The static output is recomputed only when the
  /// code has changed since the last step.
  util::Volts step_with_decay(double decay) {
    if (code_ != output_code_) {
      output_ = static_output().value();
      output_code_ = code_;
    }
    return util::Volts{buffer_.step_with_decay(output_, decay)};
  }

  /// Returns to the post-construction state: code 0, buffer discharged. The
  /// element-mismatch draw is a part property and survives reset (drawn or
  /// not, the table a later read sees is the same).
  void reset();

  [[nodiscard]] int code() const { return code_; }
  [[nodiscard]] int max_code() const {
    return static_cast<int>(element_count() - 1);
  }
  [[nodiscard]] util::Volts ideal_output(int code) const;
  /// Static (settled) output for the current code including mismatch.
  [[nodiscard]] util::Volts static_output() const;
  /// Integral nonlinearity at a code, in LSB.
  [[nodiscard]] double inl_lsb(int code) const;

  /// Pages of kPageCodes codes the transfer spans (one below 9 bits).
  [[nodiscard]] int page_count() const;
  /// Pages whose prefix sums have been written, i.e. read at least once.
  [[nodiscard]] int filled_pages() const;

  /// Checkpoint support: latched code and buffer voltage. The element
  /// mismatch is a part draw, reproduced by reconstruction. A code outside
  /// [0, 2^bits − 1] throws state::Error: reading it would fill a page past
  /// the table.
  void save_state(state::Writer& w) const {
    w.i32(code_);
    w.f64(buffer_.value());
  }
  void load_state(state::Reader& r);

 private:
  /// Where a page's prefix sums start: the stream before the page's first
  /// element draw and the sum of the weights below it.
  struct PageMark {
    util::Rng::State rng;
    double start = 0.0;
    std::once_flag fill;
  };
  /// Unmaps the prefix sums.
  struct Unmap {
    std::size_t bytes;
    void operator()(double* sums) const noexcept;
  };
  /// Returns a page directory to the process-wide directory pool.
  struct ReturnMarks {
    std::size_t pages;
    void operator()(PageMark* marks) const noexcept;
  };

  /// The prefix sum of the unit-element weights below `code`, drawing the
  /// table and filling the code's page on first use.
  [[nodiscard]] double prefix_sum(int code) const;
  void fill_page(std::size_t page) const;
  [[nodiscard]] std::size_t element_count() const {
    return std::size_t{1} << spec_.bits;
  }

  ThermometerDacSpec spec_;
  util::Rng rng_;  // the mismatch stream; the draw reads a copy
  mutable std::once_flag draw_once_;
  // Bit p is set (release) once page p holds its prefix sums, so a read of a
  // filled page is one acquire load. 14 bits make 32 pages.
  mutable std::atomic<std::uint32_t> filled_{0};
  // The prefix sums of codes 0 … 2^bits − 1 in one anonymous mapping, a page
  // to each 4 KB memory page, so only the filled pages become resident. The
  // directory (one PageMark per page) comes from a pool of mapped slabs
  // shared by every DAC (dac.cpp). Neither is malloc'd: the first read
  // usually runs on a pool worker, and glibc keeps a worker's freed memory
  // in that thread's arena, so malloc'd tables made a fleet's peak RSS
  // depend on which worker drew which sensor's table.
  mutable std::unique_ptr<double[], Unmap> sums_;
  mutable std::unique_ptr<PageMark[], ReturnMarks> marks_;
  mutable double total_ = 0.0;  // the sum of all 2^bits weights
  int code_ = 0;
  int output_code_ = -1;  // the code `output_` is the static output of
  double output_ = 0.0;
  sim::FirstOrderLag buffer_;
};

}  // namespace aqua::analog
