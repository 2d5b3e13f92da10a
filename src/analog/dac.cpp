#include "analog/dac.hpp"

#include <sys/mman.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstddef>
#include <new>
#include <stdexcept>
#include <type_traits>

namespace aqua::analog {

using util::Rng;
using util::Volts;

// A directory goes back to its pool without running destructors.
static_assert(std::is_trivially_destructible_v<std::once_flag> &&
              std::is_trivially_destructible_v<Rng::State>);

namespace {

// The page directories of every DAC in the process, carved from slabs mapped
// from the kernel and recycled through one free list per page count. A
// directory's place depends only on how many are live, not on which thread
// drew it. The pool is never destroyed, so a DAC with static storage
// duration can still return its directory at exit.
class DirectoryPool {
 public:
  static DirectoryPool& instance() {
    static DirectoryPool* const pool = new DirectoryPool;
    return *pool;
  }

  /// A block for `pages` marks; `pages` is a power of two up to 32.
  void* take(std::size_t pages, std::size_t bytes) {
    const std::lock_guard lock{mutex_};
    Free*& head = free_[static_cast<std::size_t>(std::countr_zero(pages))];
    if (head != nullptr) {
      Free* const block = head;
      head = block->next;
      return block;
    }
    if (left_ < bytes) {
      void* slab = ::mmap(nullptr, kSlabBytes, PROT_READ | PROT_WRITE,
                          MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
      if (slab == MAP_FAILED) throw std::bad_alloc{};
      next_ = static_cast<std::byte*>(slab);
      left_ = kSlabBytes;
    }
    void* const block = next_;
    next_ += bytes;
    left_ -= bytes;
    return block;
  }

  void give(void* block, std::size_t pages) noexcept {
    const std::lock_guard lock{mutex_};
    Free*& head = free_[static_cast<std::size_t>(std::countr_zero(pages))];
    head = ::new (block) Free{head};
  }

 private:
  struct Free {
    Free* next;
  };
  static constexpr std::size_t kSlabBytes = 64 * 1024;

  std::mutex mutex_;
  std::array<Free*, 6> free_{};  // 1, 2, 4, … 32 pages
  std::byte* next_ = nullptr;    // the current slab's unused tail
  std::size_t left_ = 0;
};

}  // namespace

ThermometerDac::ThermometerDac(const ThermometerDacSpec& spec, Rng rng)
    : spec_(spec), rng_(rng), buffer_(0.0, spec.settling_tau) {
  if (spec.bits < 4 || spec.bits > 14)
    throw std::invalid_argument("ThermometerDac: bits out of range [4,14]");
  if (spec.full_scale.value() <= 0.0)
    throw std::invalid_argument("ThermometerDac: bad full scale");
}

void ThermometerDac::Unmap::operator()(double* sums) const noexcept {
  ::munmap(sums, bytes);
}

void ThermometerDac::ReturnMarks::operator()(PageMark* marks) const noexcept {
  DirectoryPool::instance().give(marks, pages);
}

int ThermometerDac::page_count() const {
  return static_cast<int>((element_count() + kPageCodes - 1) / kPageCodes);
}

int ThermometerDac::filled_pages() const {
  return std::popcount(filled_.load(std::memory_order_acquire));
}

double ThermometerDac::prefix_sum(int code) const {
  const auto c = static_cast<std::size_t>(code);
  const std::size_t page = c / kPageCodes;
  if (!(filled_.load(std::memory_order_acquire) & (std::uint32_t{1} << page)))
    fill_page(page);
  return sums_[c];
}

void ThermometerDac::fill_page(std::size_t page) const {
  const std::size_t n = element_count();
  const double sigma = spec_.element_mismatch_sigma;
  std::call_once(draw_once_, [&] {
    const std::size_t bytes = n * sizeof(double);
    void* mapped = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                          MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (mapped == MAP_FAILED) throw std::bad_alloc{};
    sums_ = {static_cast<double*>(mapped), Unmap{bytes}};
    const auto pages = static_cast<std::size_t>(page_count());
    auto* const marks = static_cast<PageMark*>(
        DirectoryPool::instance().take(pages, pages * sizeof(PageMark)));
    marks_ = {marks, ReturnMarks{pages}};
    // Unit element values, nominal 1.0, drawn in element order from a copy
    // of the part's stream: the same draws a construction-time table took.
    // Only each page's starting point and the total are kept.
    Rng rng = rng_;
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (i % kPageCodes == 0)
        ::new (static_cast<void*>(marks + i / kPageCodes))
            PageMark{rng.state(), sum, {}};
      sum = sum + (1.0 + rng.gaussian(0.0, sigma));
    }
    total_ = sum;
  });
  PageMark& mark = marks_[page];
  std::call_once(mark.fill, [&] {
    // The page's draws again, from its checkpoint: the same sums, in the
    // same order, as the walk above.
    Rng rng;
    rng.set_state(mark.rng);
    const std::size_t first = page * kPageCodes;
    const std::size_t end = std::min(first + kPageCodes, n);
    sums_[first] = mark.start;
    for (std::size_t i = first + 1; i < end; ++i)
      sums_[i] = sums_[i - 1] + (1.0 + rng.gaussian(0.0, sigma));
    filled_.fetch_or(std::uint32_t{1} << page, std::memory_order_release);
  });
}

void ThermometerDac::write_voltage(Volts v) {
  const double frac = v.value() / spec_.full_scale.value();
  write_code(static_cast<int>(std::lround(frac * max_code())));
}

void ThermometerDac::load_state(state::Reader& r) {
  const std::int32_t code = r.i32();
  if (code < 0 || code > max_code())
    throw state::Error("ThermometerDac: code out of range");
  code_ = code;
  buffer_.reset(r.f64());
}

void ThermometerDac::reset() {
  code_ = 0;
  buffer_.reset(0.0);
}

Volts ThermometerDac::ideal_output(int code) const {
  const int c = std::clamp(code, 0, max_code());
  return Volts{spec_.full_scale.value() * static_cast<double>(c) /
               static_cast<double>(max_code())};
}

Volts ThermometerDac::static_output() const {
  // Thermometer decode: the first `code_` unit elements are on. Normalising by
  // the measured total weight models a trimmed full-scale reference.
  const double sum = prefix_sum(code_);  // draws the table before total_ is read
  const std::size_t n = element_count();
  const double frac = sum / total_ * static_cast<double>(n) /
                      static_cast<double>(max_code());
  return Volts{spec_.full_scale.value() * frac};
}

double ThermometerDac::inl_lsb(int code) const {
  const int c = std::clamp(code, 0, max_code());
  const double lsb = spec_.full_scale.value() / static_cast<double>(max_code());
  const double sum = prefix_sum(c);
  const std::size_t n = element_count();
  const double actual = spec_.full_scale.value() * sum / total_ *
                        static_cast<double>(n) /
                        static_cast<double>(max_code());
  return (actual - ideal_output(c).value()) / lsb;
}

}  // namespace aqua::analog
