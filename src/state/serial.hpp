// serial.hpp — the byte-level encoder/decoder underneath the checkpoint
// format (DESIGN.md §14). Every stateful component exposes
//
//   void save_state(state::Writer& w) const;
//   void load_state(state::Reader& r);
//
// writing its *mutable, evolving* state only: one-time part draws (resistor
// tolerances, amp offsets, DAC element mismatch) are reproduced by
// constructing the restore target from the identical config + root seed, so
// they never enter a checkpoint. Doubles are serialised as their exact IEEE
// bit patterns — restore is bit-identical, never a parse/print round trip.
//
// Encoding: fixed-width little-endian integers, no alignment, no padding.
// Reader is bounds-checked everywhere and throws state::Error instead of
// reading past the end — a truncated or bit-flipped payload must surface as
// a recoverable error, never UB (the corruption battery in tests/state
// feeds the loader adversarial bytes).
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace aqua::state {

/// Any malformed-checkpoint condition: truncation, bad magic, CRC mismatch,
/// version skew, or a payload that decodes to impossible values.
class Error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Append-only byte buffer with typed little-endian writers.
class Writer {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { append_le(v); }
  void u32(std::uint32_t v) { append_le(v); }
  void u64(std::uint64_t v) { append_le(v); }
  void i32(std::int32_t v) { append_le(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { append_le(static_cast<std::uint64_t>(v)); }
  /// Exact IEEE-754 bit pattern; NaN payloads and signed zeros round-trip.
  void f64(double v) { append_le(std::bit_cast<std::uint64_t>(v)); }
  void boolean(bool v) { buf_.push_back(v ? 1 : 0); }
  /// Container size (u64 on the wire regardless of host size_t).
  void size(std::size_t n) { append_le(static_cast<std::uint64_t>(n)); }
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + n);
  }
  /// Length-prefixed string.
  void str(std::string_view s) {
    size(s.size());
    bytes(s.data(), s.size());
  }

  [[nodiscard]] std::span<const std::uint8_t> view() const { return buf_; }
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  template <class T>
  void append_le(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i)
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }

  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked reader over one section payload. Never reads past the end:
/// throws state::Error instead, which the checkpoint loader treats as a
/// corrupt candidate (fall back to the next-newest file).
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> data)
      : p_(data.data()), end_(data.data() + data.size()) {}

  std::uint8_t u8() { return take_le<std::uint8_t>(); }
  std::uint16_t u16() { return take_le<std::uint16_t>(); }
  std::uint32_t u32() { return take_le<std::uint32_t>(); }
  std::uint64_t u64() { return take_le<std::uint64_t>(); }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() { return std::bit_cast<double>(u64()); }
  bool boolean() {
    const std::uint8_t v = u8();
    if (v > 1) throw Error("state: boolean field is neither 0 nor 1");
    return v != 0;
  }
  /// Container size, sanity-bounded by the bytes that could possibly back it
  /// (`min_element_bytes` per element) so a corrupt length can never drive a
  /// multi-gigabyte allocation before the per-element reads would throw.
  std::size_t size(std::size_t min_element_bytes = 1) {
    const std::uint64_t n = u64();
    const std::size_t rem = remaining();
    if (min_element_bytes > 0 && n > rem / min_element_bytes + 1)
      throw Error("state: container length exceeds the bytes behind it");
    return static_cast<std::size_t>(n);
  }
  void bytes(void* out, std::size_t n) {
    require(n);
    std::memcpy(out, p_, n);
    p_ += n;
  }
  std::string str() {
    const std::size_t n = size(1);
    require(n);
    std::string s(reinterpret_cast<const char*>(p_), n);
    p_ += n;
    return s;
  }

  [[nodiscard]] std::size_t remaining() const {
    return static_cast<std::size_t>(end_ - p_);
  }
  /// Restores must consume their payload exactly — trailing garbage means the
  /// writer and reader disagree about the format.
  void expect_end() const {
    if (p_ != end_) throw Error("state: trailing bytes after a full decode");
  }

 private:
  void require(std::size_t n) const {
    if (remaining() < n) throw Error("state: payload truncated");
  }
  template <class T>
  T take_le() {
    require(sizeof(T));
    T v{};
    for (std::size_t i = 0; i < sizeof(T); ++i)
      v = static_cast<T>(v | (static_cast<T>(p_[i]) << (8 * i)));
    p_ += sizeof(T);
    return v;
  }

  const std::uint8_t* p_;
  const std::uint8_t* end_;
};

// --- helpers for common shapes ---------------------------------------------

inline void save_f64_vector(Writer& w, const std::vector<double>& v) {
  w.size(v.size());
  for (const double x : v) w.f64(x);
}

inline void load_f64_vector(Reader& r, std::vector<double>& v) {
  const std::size_t n = r.size(8);
  v.resize(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = r.f64();
}

}  // namespace aqua::state
