// Edge-case tests for obs::to_json, built on synthetic Snapshots (the
// registry's fixed capacity is left alone): names that need JSON escaping,
// empty-histogram min/max emission, and round-trip-exact double formatting.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <utility>

#include "json_validate.hpp"
#include "obs/json.hpp"

namespace {

using namespace aqua;

/// A one-sample histogram whose merged sum is `sum`.
obs::HistogramSnapshot histogram_with_sum(std::string name, double sum) {
  obs::HistogramSnapshot h;
  h.name = std::move(name);
  h.upper_edges = {1.0};
  h.counts = {0, 1, 0};
  h.count = 1;
  h.sum = sum;
  h.min = 0.5;
  h.max = 0.5;
  return h;
}

/// The text of `key`'s value in the object exported under `name`.
std::string value_in(const std::string& json, const std::string& name,
                     const std::string& key) {
  const std::size_t object = json.find("\"" + name + "\": {");
  if (object == std::string::npos) return "";
  const std::string field = "\"" + key + "\": ";
  const std::size_t pos = json.find(field, object);
  if (pos == std::string::npos) return "";
  const std::size_t begin = pos + field.size();
  return json.substr(begin, json.find_first_of(",\n", begin) - begin);
}

TEST(ObsJsonEscaping, QuoteBackslashAndControlCharsInNames) {
  obs::Snapshot snap;
  snap.counters.push_back({"quote\"in\\name", 1});
  snap.counters.push_back({"tab\tnewline\ncr\r", 2});
  std::string nul_name = "bell\x07null";
  nul_name += '\0';
  nul_name += "byte";
  snap.counters.push_back({nul_name, 3});
  snap.counters.push_back({"backspace\bformfeed\f", 4});

  const std::string json = obs::to_json(snap);
  EXPECT_TRUE(aqua::testing::JsonValidator::valid(json)) << json;
  EXPECT_NE(json.find("quote\\\"in\\\\name"), std::string::npos);
  EXPECT_NE(json.find("tab\\tnewline\\ncr\\r"), std::string::npos);
  EXPECT_NE(json.find("bell\\u0007null\\u0000byte"), std::string::npos);
  EXPECT_NE(json.find("backspace\\bformfeed\\f"), std::string::npos);
  // No raw control characters may survive into the output.
  for (char c : json)
    EXPECT_TRUE(static_cast<unsigned char>(c) >= 0x20 || c == '\n')
        << "raw control char 0x" << std::hex
        << static_cast<unsigned>(static_cast<unsigned char>(c));
}

TEST(ObsJsonEscaping, EscapeJsonStringIsExposedDirectly) {
  EXPECT_EQ(obs::escape_json_string("plain.name"), "plain.name");
  EXPECT_EQ(obs::escape_json_string("a\"b"), "a\\\"b");
  EXPECT_EQ(obs::escape_json_string("a\\b"), "a\\\\b");
  EXPECT_EQ(obs::escape_json_string(std::string_view("\x01\x1f", 2)),
            "\\u0001\\u001f");
}

TEST(ObsJsonHistogram, EmptyHistogramEmitsZeroMinMax) {
  obs::Snapshot snap;
  obs::HistogramSnapshot hist;
  hist.name = "empty.hist";
  hist.upper_edges = {1.0, 10.0};
  hist.counts = {0, 0, 0};
  hist.count = 0;
  hist.sum = 0.0;
  // Registry initialises min/max to +inf/-inf before the first observe;
  // the exporter must not leak non-finite values into JSON.
  hist.min = std::numeric_limits<double>::infinity();
  hist.max = -std::numeric_limits<double>::infinity();
  snap.histograms.push_back(hist);

  const std::string json = obs::to_json(snap);
  EXPECT_TRUE(aqua::testing::JsonValidator::valid(json)) << json;
  EXPECT_NE(json.find("\"min\": 0,"), std::string::npos);
  EXPECT_NE(json.find("\"max\": 0"), std::string::npos);
  EXPECT_EQ(json.find("inf"), std::string::npos);
}

TEST(ObsJsonDoubles, RoundTripExactFormatting) {
  const double cases[] = {0.1,
                          1.0 / 3.0,
                          1e-308,
                          1.7976931348623157e308,
                          -2.2250738585072014e-308,
                          123456789.123456789,
                          std::nextafter(1.0, 2.0)};
  for (double v : cases) {
    const std::string text = obs::json_double(v);
    const double back = std::strtod(text.c_str(), nullptr);
    EXPECT_EQ(std::memcmp(&back, &v, sizeof v), 0)
        << text << " did not round-trip";
  }
}

TEST(ObsJsonDoubles, NonFiniteValuesBecomeNull) {
  // JSON has no NaN/Infinity literals — a poisoned metric must not make the
  // whole export unparseable.
  EXPECT_EQ(obs::json_double(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(obs::json_double(-std::numeric_limits<double>::quiet_NaN()),
            "null");
  EXPECT_EQ(obs::json_double(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(obs::json_double(-std::numeric_limits<double>::infinity()), "null");
  // Finite extremes are untouched.
  EXPECT_NE(obs::json_double(std::numeric_limits<double>::max()), "null");
  EXPECT_NE(obs::json_double(-0.0), "null");
}

TEST(ObsJsonDoubles, NaNHistogramSumStillProducesValidJson) {
  obs::Snapshot snap;
  snap.histograms.push_back(histogram_with_sum(
      "poisoned.hist", std::numeric_limits<double>::quiet_NaN()));
  snap.histograms.push_back(histogram_with_sum("fine.hist", 1.25));
  const std::string json = obs::to_json(snap);
  EXPECT_TRUE(aqua::testing::JsonValidator::valid(json)) << json;
  EXPECT_EQ(value_in(json, "poisoned.hist", "sum"), "null") << json;
  EXPECT_EQ(value_in(json, "fine.hist", "sum"), "1.25") << json;
  EXPECT_EQ(json.find("nan"), std::string::npos);
}

TEST(ObsJsonDoubles, HistogramSumRoundTripsThroughFullExport) {
  const double v = 0.30000000000000004;  // classic 0.1+0.2 artefact
  obs::Snapshot snap;
  snap.histograms.push_back(histogram_with_sum("precise.hist", v));
  const std::string text = value_in(obs::to_json(snap), "precise.hist", "sum");
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(std::strtod(text.c_str(), nullptr), v);
}

}  // namespace
