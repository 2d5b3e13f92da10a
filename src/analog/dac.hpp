// dac.hpp — thermometer-coded DAC model. The ISIF "sensor driving stage ... is
// provided by a set of configurable 12 bit and 10 bit thermometer DACs"
// (paper §3); the CTA loop actuates the bridge supply through one of them.
// Thermometer coding makes the transfer inherently monotonic; element
// mismatch appears as INL, modelled as a seeded random walk over the unit
// elements. A first-order settling lag models the output buffer.
#pragma once

#include <atomic>
#include <cstddef>
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

/// The element-mismatch draw is lazy: the DAC keeps its stream and draws the
/// prefix sums on the first read of the transfer (static_output, step,
/// inl_lsb), from the same stream in the same order as a draw at
/// construction, so every output is bit-identical. A DAC that is never read
/// never draws or stores its table. The first read is thread-safe.
class ThermometerDac {
 public:
  ThermometerDac(const ThermometerDacSpec& spec, util::Rng rng);

  /// Latches a new input code (clamped to [0, 2^bits − 1]).
  void write_code(int code);

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
  /// steps one dt many times.
  util::Volts step_with_decay(double decay);

  /// Returns to the post-construction state: code 0, buffer discharged. The
  /// element-mismatch draw is a part property and survives reset (drawn or
  /// not, the table a later read sees is the same).
  void reset();

  [[nodiscard]] int code() const { return code_; }
  [[nodiscard]] int max_code() const;
  [[nodiscard]] util::Volts ideal_output(int code) const;
  /// Static (settled) output for the current code including mismatch.
  [[nodiscard]] util::Volts static_output() const;
  /// Integral nonlinearity at a code, in LSB.
  [[nodiscard]] double inl_lsb(int code) const;

  /// Checkpoint support: latched code and buffer voltage. The element
  /// mismatch is a part draw, reproduced by reconstruction.
  void save_state(state::Writer& w) const {
    w.i32(code_);
    w.f64(buffer_.value());
  }
  void load_state(state::Reader& r) {
    code_ = r.i32();
    buffer_.reset(r.f64());
  }

 private:
  /// Unmaps the page-backed table.
  struct PageRelease {
    std::size_t bytes;
    void operator()(double* table) const noexcept;
  };

  /// The 2^bits + 1 prefix sums of the unit-element weights, drawn on first
  /// call.
  const double* cumulative() const;
  [[nodiscard]] std::size_t element_count() const {
    return std::size_t{1} << spec_.bits;
  }

  ThermometerDacSpec spec_;
  util::Rng rng_;  // the mismatch stream; the draw reads a copy
  mutable std::once_flag draw_once_;
  // Set (release) once the table is drawn: the per-tick read path is one
  // acquire load instead of a std::call_once round trip.
  mutable std::atomic<bool> drawn_{false};
  // Mapped straight from the kernel, not malloc'd: the first read usually
  // runs on a pool worker, and glibc keeps a worker's freed memory in that
  // thread's arena, so malloc'd tables made a fleet's peak RSS depend on
  // which worker drew which sensor's table.
  mutable std::unique_ptr<double[], PageRelease> cumulative_;
  int code_ = 0;
  sim::FirstOrderLag buffer_;
};

}  // namespace aqua::analog
