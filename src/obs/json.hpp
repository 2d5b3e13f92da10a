// json.hpp — machine-readable export of an obs::Snapshot. The emitted object
// is the `metrics` block of the BENCH_fleet.json schema (see bench_fleet and
// DESIGN.md §8): counters as a name→value map, histograms as
// {edges, counts, count, sum, min, max}. Keys are sorted, doubles are printed
// round-trip exact (%.17g), so the output is stable for diffing between runs.
#pragma once

#include <string>
#include <string_view>

#include "obs/metrics.hpp"

namespace aqua::obs {

/// Serialises one snapshot as a JSON object. `indent` spaces per level; the
/// result has no trailing newline.
[[nodiscard]] std::string to_json(const Snapshot& snapshot, int indent = 2);

/// Returns `s` with JSON string escaping applied (quote, backslash, and all
/// control characters below 0x20), without surrounding quotes. Shared by the
/// metrics and Chrome-trace exporters.
[[nodiscard]] std::string escape_json_string(std::string_view s);

/// Round-trip-exact double rendering (%.17g): strtod of the result yields
/// the same bits back.
[[nodiscard]] std::string json_double(double v);

/// Writes `text` to `path` (truncating), appending a final newline. Throws
/// std::runtime_error on I/O failure.
void write_file(const std::string& path, const std::string& text);

}  // namespace aqua::obs
