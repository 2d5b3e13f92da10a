// nco.hpp — numerically controlled oscillator (the ISIF "sine wave generator"
// IP). Phase-accumulator design with a quarter-wave LUT and linear
// interpolation, as the hardware block would implement it.
#pragma once

#include <array>
#include <cstdint>

#include "util/units.hpp"

namespace aqua::dsp {

class Nco {
 public:
  Nco(util::Hertz frequency, util::Hertz sample_rate, double amplitude = 1.0);

  /// Produces the next sample and advances the phase.
  double next();

  void set_frequency(util::Hertz frequency);
  void reset_phase() { phase_ = 0; }

  [[nodiscard]] util::Hertz frequency() const;

 private:
  static constexpr int kLutBits = 10;
  static constexpr std::size_t kLutSize = std::size_t{1} << kLutBits;
  static const std::array<double, kLutSize + 1>& lut();

  double sample_rate_;
  std::uint32_t phase_ = 0;
  std::uint32_t increment_ = 0;
  double amplitude_;
};

}  // namespace aqua::dsp
