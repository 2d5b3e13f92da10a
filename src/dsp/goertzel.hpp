// goertzel.hpp — single-bin DFT (Goertzel algorithm). The ISIF platform's
// test bus lets firmware drive a block with the sine-generator IP and probe
// its output; Goertzel is the matching detector that measures amplitude and
// phase at the stimulus frequency with O(1) state — the classic built-in
// self-test pairing on mixed-signal parts.
#pragma once

#include <complex>
#include <cstddef>

#include "util/units.hpp"

namespace aqua::dsp {

class Goertzel {
 public:
  /// Detector for frequency f at sample rate fs over blocks of `block_size`
  /// samples. f must lie in [0, fs/2).
  Goertzel(util::Hertz f, util::Hertz fs, std::size_t block_size);

  /// Pushes one sample; returns true when a block completed (results valid
  /// until the next push).
  bool push(double x);

  /// Amplitude of the sinusoidal component at f in the last block.
  [[nodiscard]] double amplitude() const;
  /// Phase (radians) of that component.
  [[nodiscard]] double phase() const;
  /// Complex DFT bin value (normalised so a unit sine yields magnitude 1).
  [[nodiscard]] std::complex<double> bin() const { return result_; }

  void reset();

 private:
  double coeff_;
  std::complex<double> phasor_;
  std::size_t block_;
  std::size_t count_ = 0;
  double s1_ = 0.0, s2_ = 0.0;
  std::complex<double> result_{0.0, 0.0};
};

}  // namespace aqua::dsp
