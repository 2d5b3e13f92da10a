// The host lane-width probe the benchmark's host fingerprint reports.
#include <gtest/gtest.h>

#include "simd/lanes.hpp"

namespace aqua::simd {
namespace {

TEST(Lanes, ActiveWidthIsAConfiguredWidth) {
  const int w = active_lane_width();
  EXPECT_TRUE(w == 1 || w == 2 || w == 4 || w == 8) << w;
#if defined(__x86_64__)
  EXPECT_GE(w, 2) << "SSE2 is part of the x86-64 baseline";
#endif
  EXPECT_EQ(active_lane_width(), w);
}

}  // namespace
}  // namespace aqua::simd
