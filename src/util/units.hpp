// units.hpp — compile-time dimensional analysis for the quantities the library
// trades in (SI base dimensions: mass, length, time, current, temperature).
//
// A Quantity stores a double in SI base units and carries its dimension in the
// type. Arithmetic combines dimensions at compile time, so mixing volts with
// metres per second is a build error, not a field failure. Public APIs of the
// library accept/return these strong types; hot inner loops may unwrap with
// .value() where the dimension is locally obvious.
#pragma once

#include <cmath>
#include <compare>

namespace aqua::util {

/// Dimension exponents over SI base units (kg, m, s, A, K).
template <int M, int L, int T, int I, int Th>
struct Dim {
  static constexpr int mass = M;
  static constexpr int length = L;
  static constexpr int time = T;
  static constexpr int current = I;
  static constexpr int temperature = Th;
};

template <class A, class B>
using DimMul = Dim<A::mass + B::mass, A::length + B::length, A::time + B::time,
                   A::current + B::current, A::temperature + B::temperature>;

template <class A, class B>
using DimDiv = Dim<A::mass - B::mass, A::length - B::length, A::time - B::time,
                   A::current - B::current, A::temperature - B::temperature>;

/// A value with compile-time dimension D, stored in coherent SI units.
template <class D>
class Quantity {
 public:
  constexpr Quantity() = default;
  constexpr explicit Quantity(double v) : v_(v) {}

  /// The numeric value in coherent SI base units.
  [[nodiscard]] constexpr double value() const { return v_; }

  constexpr Quantity operator-() const { return Quantity{-v_}; }
  constexpr Quantity& operator+=(Quantity o) { v_ += o.v_; return *this; }
  constexpr Quantity& operator-=(Quantity o) { v_ -= o.v_; return *this; }
  constexpr Quantity& operator*=(double s) { v_ *= s; return *this; }
  constexpr Quantity& operator/=(double s) { v_ /= s; return *this; }

  friend constexpr Quantity operator+(Quantity a, Quantity b) { return Quantity{a.v_ + b.v_}; }
  friend constexpr Quantity operator-(Quantity a, Quantity b) { return Quantity{a.v_ - b.v_}; }
  friend constexpr Quantity operator*(Quantity a, double s) { return Quantity{a.v_ * s}; }
  friend constexpr Quantity operator*(double s, Quantity a) { return Quantity{s * a.v_}; }
  friend constexpr Quantity operator/(Quantity a, double s) { return Quantity{a.v_ / s}; }
  friend constexpr double operator/(Quantity a, Quantity b) { return a.v_ / b.v_; }
  friend constexpr auto operator<=>(Quantity a, Quantity b) = default;

 private:
  double v_ = 0.0;
};

template <class DA, class DB>
constexpr Quantity<DimMul<DA, DB>> operator*(Quantity<DA> a, Quantity<DB> b) {
  return Quantity<DimMul<DA, DB>>{a.value() * b.value()};
}

template <class DA, class DB>
  requires(!std::is_same_v<DA, DB>)
constexpr Quantity<DimDiv<DA, DB>> operator/(Quantity<DA> a, Quantity<DB> b) {
  return Quantity<DimDiv<DA, DB>>{a.value() / b.value()};
}

// --- Dimension aliases -------------------------------------------------------
using DimLess = Dim<0, 0, 0, 0, 0>;
using DimLength = Dim<0, 1, 0, 0, 0>;
using DimTime = Dim<0, 0, 1, 0, 0>;
using DimMass = Dim<1, 0, 0, 0, 0>;
using DimCurrent = Dim<0, 0, 0, 1, 0>;
using DimTemperature = Dim<0, 0, 0, 0, 1>;
using DimVelocity = Dim<0, 1, -1, 0, 0>;
using DimFrequency = Dim<0, 0, -1, 0, 0>;
using DimArea = Dim<0, 2, 0, 0, 0>;
using DimVolume = Dim<0, 3, 0, 0, 0>;
using DimVolumeFlow = Dim<0, 3, -1, 0, 0>;
using DimPressure = Dim<1, -1, -2, 0, 0>;
using DimEnergy = Dim<1, 2, -2, 0, 0>;
using DimPower = Dim<1, 2, -3, 0, 0>;
using DimVoltage = Dim<1, 2, -3, -1, 0>;
using DimResistance = Dim<1, 2, -3, -2, 0>;
using DimCharge = Dim<0, 0, 1, 1, 0>;

// --- Quantity aliases --------------------------------------------------------
using Metres = Quantity<DimLength>;
using Seconds = Quantity<DimTime>;
using Kilograms = Quantity<DimMass>;
using Amperes = Quantity<DimCurrent>;
using Kelvin = Quantity<DimTemperature>;   ///< absolute or difference; see Celsius helpers
using MetresPerSecond = Quantity<DimVelocity>;
using Hertz = Quantity<DimFrequency>;
using SquareMetres = Quantity<DimArea>;
using CubicMetres = Quantity<DimVolume>;
using CubicMetresPerSecond = Quantity<DimVolumeFlow>;
using Pascals = Quantity<DimPressure>;
using Joules = Quantity<DimEnergy>;
using Watts = Quantity<DimPower>;
using Volts = Quantity<DimVoltage>;
using Ohms = Quantity<DimResistance>;
using Coulombs = Quantity<DimCharge>;

// --- Construction helpers ----------------------------------------------------
constexpr Metres metres(double v) { return Metres{v}; }
constexpr Metres millimetres(double v) { return Metres{v * 1e-3}; }
constexpr Metres micrometres(double v) { return Metres{v * 1e-6}; }
constexpr Seconds seconds(double v) { return Seconds{v}; }
constexpr Seconds milliseconds(double v) { return Seconds{v * 1e-3}; }
constexpr Hertz hertz(double v) { return Hertz{v}; }
constexpr Volts volts(double v) { return Volts{v}; }
constexpr Volts millivolts(double v) { return Volts{v * 1e-3}; }
constexpr Amperes amperes(double v) { return Amperes{v}; }
constexpr Ohms ohms(double v) { return Ohms{v}; }
constexpr Watts watts(double v) { return Watts{v}; }
constexpr Watts milliwatts(double v) { return Watts{v * 1e-3}; }
constexpr Pascals pascals(double v) { return Pascals{v}; }
constexpr Pascals bar(double v) { return Pascals{v * 1e5}; }
constexpr Kelvin kelvin(double v) { return Kelvin{v}; }
constexpr MetresPerSecond metres_per_second(double v) { return MetresPerSecond{v}; }
constexpr MetresPerSecond centimetres_per_second(double v) { return MetresPerSecond{v * 1e-2}; }

/// Celsius <-> Kelvin conversions for absolute temperatures.
constexpr double kKelvinOffset = 273.15;
constexpr Kelvin celsius(double deg_c) { return Kelvin{deg_c + kKelvinOffset}; }
constexpr double to_celsius(Kelvin t) { return t.value() - kKelvinOffset; }

/// Readout helpers used by experiment reports.
constexpr double to_centimetres_per_second(MetresPerSecond v) { return v.value() * 1e2; }
constexpr double to_bar(Pascals p) { return p.value() * 1e-5; }
constexpr double to_millivolts(Volts v) { return v.value() * 1e3; }

namespace literals {
constexpr Metres operator""_m(long double v) { return Metres{static_cast<double>(v)}; }
constexpr Metres operator""_mm(long double v) { return millimetres(static_cast<double>(v)); }
constexpr Metres operator""_um(long double v) { return micrometres(static_cast<double>(v)); }
constexpr Seconds operator""_s(long double v) { return Seconds{static_cast<double>(v)}; }
constexpr Seconds operator""_ms(long double v) { return milliseconds(static_cast<double>(v)); }
constexpr Hertz operator""_Hz(long double v) { return Hertz{static_cast<double>(v)}; }
constexpr Hertz operator""_kHz(long double v) { return Hertz{static_cast<double>(v) * 1e3}; }
constexpr Volts operator""_V(long double v) { return Volts{static_cast<double>(v)}; }
constexpr Volts operator""_mV(long double v) { return millivolts(static_cast<double>(v)); }
constexpr Ohms operator""_Ohm(long double v) { return Ohms{static_cast<double>(v)}; }
constexpr Watts operator""_W(long double v) { return Watts{static_cast<double>(v)}; }
constexpr Watts operator""_mW(long double v) { return milliwatts(static_cast<double>(v)); }
constexpr Pascals operator""_bar(long double v) { return bar(static_cast<double>(v)); }
constexpr Kelvin operator""_K(long double v) { return Kelvin{static_cast<double>(v)}; }
constexpr Kelvin operator""_degC(long double v) { return celsius(static_cast<double>(v)); }
constexpr MetresPerSecond operator""_mps(long double v) { return MetresPerSecond{static_cast<double>(v)}; }
constexpr MetresPerSecond operator""_cmps(long double v) { return centimetres_per_second(static_cast<double>(v)); }
}  // namespace literals

}  // namespace aqua::util
