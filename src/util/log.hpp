// log.hpp — minimal leveled logger for examples and experiment harnesses.
// Deliberately tiny: a global level, a printf-free streaming call site.
#pragma once

#include <optional>
#include <sstream>
#include <string>
#include <string_view>

namespace aqua::util {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Parses a level name ("debug", "info", "warn"/"warning", "error", "off",
/// any case); nullopt when unrecognised. This is the `AQUA_LOG_LEVEL`
/// environment syntax — the variable, when set to a valid name, provides the
/// initial global threshold instead of the kInfo default.
[[nodiscard]] std::optional<LogLevel> log_level_from_string(
    std::string_view text);

/// Sets the global threshold; messages below it are dropped.
void set_log_level(LogLevel level);
[[nodiscard]] LogLevel log_level();

/// Emits one line (with level prefix) to stderr if `level` passes the filter.
void log_line(LogLevel level, const std::string& message);

namespace detail {
class LogStream {
 public:
  explicit LogStream(LogLevel level) : level_(level) {}
  ~LogStream() { log_line(level_, os_.str()); }
  LogStream(const LogStream&) = delete;
  LogStream& operator=(const LogStream&) = delete;
  template <class T>
  LogStream& operator<<(const T& v) {
    os_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream os_;
};
}  // namespace detail

inline detail::LogStream log_warn() { return detail::LogStream{LogLevel::kWarn}; }

}  // namespace aqua::util
