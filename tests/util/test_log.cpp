// Tests for util::log's level names and threshold. benchmark/run.py silences
// the supervisor's warnings with AQUA_LOG_LEVEL=error, which holds only while
// the names parse and the threshold drops what lies below it.
#include "util/log.hpp"

#include <gtest/gtest.h>

#include <string>

namespace aqua::util {
namespace {

TEST(Log, LevelNamesParseInAnyCase) {
  EXPECT_EQ(log_level_from_string("debug"), LogLevel::kDebug);
  EXPECT_EQ(log_level_from_string("INFO"), LogLevel::kInfo);
  EXPECT_EQ(log_level_from_string("Warn"), LogLevel::kWarn);
  EXPECT_EQ(log_level_from_string("warning"), LogLevel::kWarn);
  EXPECT_EQ(log_level_from_string("ERROR"), LogLevel::kError);
  EXPECT_EQ(log_level_from_string("off"), LogLevel::kOff);
}

TEST(Log, UnknownLevelNameIsRejected) {
  EXPECT_FALSE(log_level_from_string("verbose").has_value());
  EXPECT_FALSE(log_level_from_string("").has_value());
}

TEST(Log, ThresholdDropsWarningsBelowIt) {
  const LogLevel before = log_level();

  set_log_level(LogLevel::kError);
  ::testing::internal::CaptureStderr();
  log_warn() << "dropped " << 1;
  const std::string dropped = ::testing::internal::GetCapturedStderr();

  set_log_level(LogLevel::kWarn);
  ::testing::internal::CaptureStderr();
  log_warn() << "kept " << 2;
  const std::string kept = ::testing::internal::GetCapturedStderr();

  set_log_level(before);
  EXPECT_EQ(dropped, "");
  EXPECT_EQ(kept, "[warn ] kept 2\n");
}

}  // namespace
}  // namespace aqua::util
