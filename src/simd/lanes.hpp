// lanes.hpp — the host's SIMD lane width, as a run-time ISA probe. The
// library has no vector code path (DESIGN.md §13 records why the cross-sensor
// lanes were retired); this one function stays because the end-to-end
// benchmark's host fingerprint (benchmark/aquabench.cpp, `host.lane_width`)
// includes this header and reports its value, so results from hosts with
// different vector units are never compared as if they were alike.
#pragma once

namespace aqua::simd {

/// Doubles per vector register on the running CPU: 8 with AVX-512, 4 with
/// AVX2, 2 with SSE2 or NEON, 1 otherwise — the width the retired lanes,
/// built for the host's own ISA, reported on the same machine.
[[nodiscard]] inline int active_lane_width() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f")) return 8;
  if (__builtin_cpu_supports("avx2")) return 4;
  if (__builtin_cpu_supports("sse2")) return 2;
  return 1;
#elif defined(__ARM_NEON) || defined(__aarch64__)
  return 2;
#else
  return 1;
#endif
}

}  // namespace aqua::simd
