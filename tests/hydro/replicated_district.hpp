// replicated_district.hpp — the district of bench::replicated_district
// (bench/common.hpp) and of the end-to-end benchmark, for tests: a reservoir
// feeding a hub and four radial chains of tapered pipes (32 pipes, 32
// junctions), replicated `replicas` times. Each replica is hydraulically
// independent, so 32 replicas give a 1024-unknown nodal system that
// converges like one.
#pragma once

#include <cstddef>

#include "hydro/network.hpp"

namespace aqua::hydro {

inline WaterNetwork replicated_district(std::size_t replicas) {
  WaterNetwork net;
  for (std::size_t rep = 0; rep < replicas; ++rep) {
    const auto res = net.add_reservoir(45.0);
    const auto hub = net.add_junction(2.0, 0.002);
    const auto first_pipe = net.pipe_count();
    (void)net.add_pipe(res, hub, util::metres(200.0), util::millimetres(250.0));
    for (int chain = 0; chain < 4; ++chain) {
      auto prev = hub;
      for (int k = 0; k < 8; ++k) {
        if (net.pipe_count() - first_pipe >= 32) break;
        const auto next = net.add_junction(1.5 - 0.1 * k, 0.002);
        (void)net.add_pipe(prev, next, util::metres(250.0),
                           util::millimetres(150.0 - 14.0 * k));
        prev = next;
      }
    }
  }
  return net;
}

}  // namespace aqua::hydro
