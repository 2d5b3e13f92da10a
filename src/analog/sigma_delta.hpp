// sigma_delta.hpp — discrete-time 2nd-order single-bit ΣΔ modulator, the core
// of the ISIF channel's "16 bits Sigma Delta ADC" (paper §3, Fig. 4). The
// modulator runs at the oversampled clock; a dsp::CicDecimator downstream
// recovers the multi-bit word. The structure is the standard Boser-Wooley
// loop: two delaying integrators with feedback coefficients 1 and 2, a 1-bit
// quantiser, and a small dither injection to break idle tones.
#pragma once

#include <algorithm>
#include <cmath>

#include "state/rng_io.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace aqua::analog {

struct SigmaDeltaSpec {
  util::Volts full_scale = util::volts(1.6);  ///< ±FS differential input
  double dither_lsb = 1e-4;                   ///< dither sigma relative to FS
  double integrator_leak = 0.0;               ///< per-sample leak (finite op-amp gain)
  double integrator_saturation = 4.0;         ///< clip level, in FS units
};

class SigmaDeltaModulator {
 public:
  SigmaDeltaModulator(const SigmaDeltaSpec& spec, util::Rng rng);

  /// One modulator clock: input in volts, output ±1 bitstream value.
  int step(util::Volts input);

  /// Register-resident per-block state for fused frame kernels (DESIGN.md
  /// §9). step() takes the sample's dither draw (DitherKernel) and performs
  /// the identical FP operations, in the identical order, as the scalar
  /// step(); it returns the ±1.0 bit. any_overload latches whether ANY sample
  /// of the block overloaded the stable input range — the per-block flag the
  /// channel needs; after commit_block() overloaded() reports the LAST
  /// sample, exactly as after scalar stepping.
  struct BlockKernel {
    double fs, leak, sat, s1, s2, fb;
    bool last_overload, any_overload;
    double step(double volts, double dither) {
      double u = volts / fs;
      last_overload = std::abs(u) > 0.9;
      any_overload = any_overload || last_overload;
      u = std::clamp(u, -1.0, 1.0);
      u += dither;
      s1 = leak * s1 + 0.5 * (u - fb);
      s1 = std::clamp(s1, -sat, sat);
      s2 = leak * s2 + 0.5 * (s1 - fb);
      s2 = std::clamp(s2, -sat, sat);
      fb = (s2 >= 0.0) ? 1.0 : -1.0;
      return fb;
    }
  };
  [[nodiscard]] BlockKernel begin_block() const;
  void commit_block(const BlockKernel& k);

  /// Draw kernel for fully fused frame loops: the dither stream as
  /// register-resident state (DESIGN.md §9).
  struct DitherKernel {
    util::Rng rng;
    double dither;
    double draw() { return rng.gaussian(0.0, dither); }
  };
  [[nodiscard]] DitherKernel begin_dither_block() const {
    return {rng_, spec_.dither_lsb};
  }
  void commit_dither_block(const DitherKernel& k) { rng_ = k.rng; }

  void reset();

  /// Checkpoint support: integrators, feedback bit, overload flag and the
  /// dither stream position.
  void save_state(state::Writer& w) const {
    state::save_rng(w, rng_);
    w.f64(s1_);
    w.f64(s2_);
    w.i32(prev_bit_);
    w.boolean(overloaded_);
  }
  void load_state(state::Reader& r) {
    state::load_rng(r, rng_);
    s1_ = r.f64();
    s2_ = r.f64();
    prev_bit_ = r.i32();
    overloaded_ = r.boolean();
  }

  [[nodiscard]] const SigmaDeltaSpec& spec() const { return spec_; }
  /// True if the most recent input exceeded the stable input range (~±0.9 FS
  /// for a 2nd-order loop); the channel flags this as overload.
  [[nodiscard]] bool overloaded() const { return overloaded_; }

 private:
  SigmaDeltaSpec spec_;
  util::Rng rng_;
  util::Rng initial_rng_;
  double s1_ = 0.0;
  double s2_ = 0.0;
  int prev_bit_ = 1;
  bool overloaded_ = false;
};

}  // namespace aqua::analog
