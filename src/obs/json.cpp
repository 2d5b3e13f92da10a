#include "obs/json.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace aqua::obs {

std::string escape_json_string(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

std::string json_double(double v) {
  // JSON has no NaN/Infinity literals; emitting printf's "nan"/"inf" would
  // produce a document every conforming parser rejects. A non-finite metric
  // (a histogram sum poisoned by a NaN sample, an uninitialised min/max)
  // becomes null so the export stays machine-readable and the hole stays
  // visible.
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

namespace {

std::string fmt_double(double v) { return json_double(v); }

std::string quote(const std::string& s) {
  return "\"" + escape_json_string(s) + "\"";
}

class Writer {
 public:
  explicit Writer(int indent) : indent_(indent) {}

  void line(const std::string& text) {
    out_.append(static_cast<std::size_t>(depth_ * indent_), ' ');
    out_ += text;
    out_.push_back('\n');
  }
  void open(const std::string& prefix, char bracket) {
    line(prefix + bracket);
    ++depth_;
  }
  void close(char bracket, bool trailing_comma) {
    --depth_;
    line(std::string(1, bracket) + (trailing_comma ? "," : ""));
  }
  [[nodiscard]] std::string str() {
    if (!out_.empty() && out_.back() == '\n') out_.pop_back();
    return std::move(out_);
  }

 private:
  std::string out_;
  int indent_;
  int depth_ = 0;
};

template <class Range, class Emit>
void emit_map(Writer& w, const std::string& key, const Range& range, Emit emit,
              bool trailing_comma) {
  w.open(quote(key) + ": ", '{');
  for (std::size_t i = 0; i < range.size(); ++i)
    emit(range[i], i + 1 < range.size());
  w.close('}', trailing_comma);
}

template <class T>
std::string array_of(const std::vector<T>& xs) {
  std::string out = "[";
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i > 0) out += ", ";
    if constexpr (std::is_floating_point_v<T>)
      out += fmt_double(xs[i]);
    else
      out += std::to_string(xs[i]);
  }
  out += "]";
  return out;
}

}  // namespace

std::string to_json(const Snapshot& snapshot, int indent) {
  Writer w(indent);
  w.open("", '{');

  emit_map(w, "counters", snapshot.counters,
           [&](const CounterSnapshot& c, bool comma) {
             w.line(quote(c.name) + ": " + std::to_string(c.value) +
                    (comma ? "," : ""));
           },
           true);
  emit_map(w, "histograms", snapshot.histograms,
           [&](const HistogramSnapshot& h, bool comma) {
             w.open(quote(h.name) + ": ", '{');
             w.line("\"upper_edges\": " + array_of(h.upper_edges) + ",");
             w.line("\"counts\": " + array_of(h.counts) + ",");
             w.line("\"count\": " + std::to_string(h.count) + ",");
             w.line("\"sum\": " + fmt_double(h.sum) + ",");
             w.line("\"min\": " + fmt_double(h.count > 0 ? h.min : 0.0) + ",");
             w.line("\"max\": " + fmt_double(h.count > 0 ? h.max : 0.0));
             w.close('}', comma);
           },
           false);

  w.close('}', false);
  return w.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("obs::write_file: cannot open " + path);
  out << text << '\n';
  if (!out) throw std::runtime_error("obs::write_file: write failed for " + path);
}

}  // namespace aqua::obs
