// cic.hpp — cascaded integrator-comb (Hogenauer) decimator. This is the
// canonical first stage after a 1-bit ΣΔ modulator: N integrators at the
// modulator rate, decimation by R, N combs at the output rate. The ISIF
// channel decimates its 16-bit ΣΔ with exactly this structure ("the digital
// section decimates the ΣΔ ADC output and low-pass filters", paper §4).
//
// The accumulators are wrap-around integers, exactly like the silicon: a CIC
// integrator grows without bound under DC input (mean·fs·t), which in
// floating point eventually destroys the comb differences through rounding —
// a bug that only appears after minutes of simulated time. Two's-complement
// wrap keeps the differences exact as long as the (normalised) output
// magnitude fits the word, which the constructor checks.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <optional>
#include <vector>

#include "state/serial.hpp"

namespace aqua::dsp {

class CicDecimator {
 public:
  /// order N (typically modulator order + 1), decimation ratio R ≥ 1 (R = 1
  /// degenerates to a pass-through with the filter's fill-in latency),
  /// differential delay M (1 or 2). The product (R·M)^N must stay below 2^31
  /// so the integer datapath (input quantised to Q31) cannot alias.
  CicDecimator(int order, int decimation, int differential_delay = 1);

  /// Pushes one modulator-rate sample; returns the decimated output when a
  /// full block of R inputs has been accumulated (normalised by the CIC gain
  /// (R·M)^N so that a constant input maps to itself).
  std::optional<double> push(double x);

  /// Register-resident per-block state for fused frame kernels (DESIGN.md
  /// §9): the integrator cascade and phase, with the comb side left in the
  /// object (it runs once per decimation frame, not once per sample).
  /// push() integrates one sample and reports whether a decimated output is
  /// due — the caller then calls emit() for the comb cascade and scaling.
  /// The integer datapath is exact, so the kernel is trivially bit-identical
  /// to the scalar push().
  struct BlockKernel {
    std::array<std::uint64_t, 8> acc;
    int phase, order, decimation;
    bool push(double x) {
      return integrate(static_cast<std::uint64_t>(
          static_cast<std::int64_t>(std::llround(x * kInputScale))));
    }
    /// Integrates a ±1.0 modulator bit. Bit-identical to push(bit): ±1.0 ·
    /// kInputScale is exact and llround(-x) == -llround(x), so the quantised
    /// word is one of two constants — this hoists the llround libm call
    /// (an out-of-line call per sample) out of fused frame loops.
    bool push_bit(double bit) {
      constexpr std::int64_t kQ = static_cast<std::int64_t>(kInputScale);
      return integrate(static_cast<std::uint64_t>(bit >= 0.0 ? kQ : -kQ));
    }

   private:
    bool integrate(std::uint64_t v) {
      for (int j = 0; j < order; ++j) {
        acc[static_cast<std::size_t>(j)] += v;
        v = acc[static_cast<std::size_t>(j)];
      }
      if (++phase < decimation) return false;
      phase = 0;
      return true;
    }
  };
  [[nodiscard]] BlockKernel begin_block() const;
  /// Runs the comb cascade on the kernel's newest integrator word and returns
  /// the normalised decimated output. Call exactly when push() returns true.
  double emit(const BlockKernel& k);
  void commit_block(const BlockKernel& k);

  void reset();

  [[nodiscard]] int order() const { return order_; }
  [[nodiscard]] int decimation() const { return decimation_; }
  /// DC gain before normalisation, (R·M)^N.
  [[nodiscard]] double raw_gain() const;
  /// Output sample rate for a given input rate.
  [[nodiscard]] double output_rate(double input_rate) const {
    return input_rate / decimation_;
  }

  /// Checkpoint support: decimation phase, integrator words and comb delay
  /// lines (their shapes are fixed by the construction-time config).
  void save_state(state::Writer& w) const {
    w.i32(phase_);
    w.size(integrators_.size());
    for (const std::uint64_t acc : integrators_) w.u64(acc);
    w.size(comb_delays_.size());
    for (const auto& comb : comb_delays_) {
      w.size(comb.size());
      for (const std::uint64_t d : comb) w.u64(d);
    }
  }
  void load_state(state::Reader& r) {
    phase_ = r.i32();
    if (r.size(8) != integrators_.size())
      throw state::Error("CicDecimator: integrator count mismatch");
    for (std::uint64_t& acc : integrators_) acc = r.u64();
    if (r.size(8) != comb_delays_.size())
      throw state::Error("CicDecimator: comb count mismatch");
    for (auto& comb : comb_delays_) {
      if (r.size(8) != comb.size())
        throw state::Error("CicDecimator: comb delay depth mismatch");
      for (std::uint64_t& d : comb) d = r.u64();
    }
  }

 private:
  /// Input quantisation: Q31 over the nominal ±1 range.
  static constexpr double kInputScale = 2147483648.0;  // 2^31

  int order_;
  int decimation_;
  int delay_;
  int phase_ = 0;
  std::vector<std::uint64_t> integrators_;              // wrap-around
  std::vector<std::vector<std::uint64_t>> comb_delays_; // per comb: M-deep
};

}  // namespace aqua::dsp
