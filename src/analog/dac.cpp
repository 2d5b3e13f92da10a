#include "analog/dac.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <cmath>
#include <new>
#include <stdexcept>

namespace aqua::analog {

using util::Rng;
using util::Volts;

ThermometerDac::ThermometerDac(const ThermometerDacSpec& spec, Rng rng)
    : spec_(spec), rng_(rng), buffer_(0.0, spec.settling_tau) {
  if (spec.bits < 4 || spec.bits > 14)
    throw std::invalid_argument("ThermometerDac: bits out of range [4,14]");
  if (spec.full_scale.value() <= 0.0)
    throw std::invalid_argument("ThermometerDac: bad full scale");
}

void ThermometerDac::PageRelease::operator()(double* table) const noexcept {
  ::munmap(table, bytes);
}

const double* ThermometerDac::cumulative() const {
  if (drawn_.load(std::memory_order_acquire)) return cumulative_.get();
  std::call_once(draw_once_, [this] {
    const std::size_t n = element_count();
    const std::size_t bytes = (n + 1) * sizeof(double);
    void* pages = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (pages == MAP_FAILED) throw std::bad_alloc{};
    cumulative_ = {static_cast<double*>(pages), PageRelease{bytes}};
    // Unit element values, nominal 1.0, drawn in element order from a copy
    // of the part's stream: the same draws a construction-time table took.
    double* sums = cumulative_.get();
    Rng rng = rng_;
    const double sigma = spec_.element_mismatch_sigma;
    sums[0] = 0.0;
    for (std::size_t i = 0; i < n; ++i)
      sums[i + 1] = sums[i] + (1.0 + rng.gaussian(0.0, sigma));
    drawn_.store(true, std::memory_order_release);
  });
  return cumulative_.get();
}

void ThermometerDac::write_code(int code) {
  code_ = std::clamp(code, 0, max_code());
}

void ThermometerDac::write_voltage(Volts v) {
  const double frac = v.value() / spec_.full_scale.value();
  write_code(static_cast<int>(std::lround(frac * max_code())));
}

Volts ThermometerDac::step_with_decay(double decay) {
  return Volts{buffer_.step_with_decay(static_output().value(), decay)};
}

void ThermometerDac::reset() {
  code_ = 0;
  buffer_.reset(0.0);
}

int ThermometerDac::max_code() const {
  return static_cast<int>(element_count() - 1);
}

Volts ThermometerDac::ideal_output(int code) const {
  const int c = std::clamp(code, 0, max_code());
  return Volts{spec_.full_scale.value() * static_cast<double>(c) /
               static_cast<double>(max_code())};
}

Volts ThermometerDac::static_output() const {
  // Thermometer decode: the first `code_` unit elements are on. Normalising by
  // the measured total weight models a trimmed full-scale reference.
  const double* sums = cumulative();
  const std::size_t n = element_count();
  const double frac = sums[code_] / sums[n] * static_cast<double>(n) /
                      static_cast<double>(max_code());
  return Volts{spec_.full_scale.value() * frac};
}

double ThermometerDac::inl_lsb(int code) const {
  const int c = std::clamp(code, 0, max_code());
  const double lsb = spec_.full_scale.value() / static_cast<double>(max_code());
  const double* sums = cumulative();
  const std::size_t n = element_count();
  const double actual = spec_.full_scale.value() * sums[c] / sums[n] *
                        static_cast<double>(n) /
                        static_cast<double>(max_code());
  return (actual - ideal_output(c).value()) / lsb;
}

}  // namespace aqua::analog
