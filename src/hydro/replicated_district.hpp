// replicated_district.hpp — the district the fleet bench and the scaling tests
// build (the end-to-end benchmark builds the same one): a reservoir feeding a
// hub and four radial chains of up to eight pipes (32 pipes, one junction
// each), the "widely diffused" district of paper §6, replicated `replicas`
// times. Each replica is hydraulically independent, so every replica
// converges exactly like the original (no giant-hub head-loss pathology); 32
// replicas give a 1024-unknown nodal system.
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
    net.add_pipe(res, hub, util::metres(200.0), util::millimetres(250.0));
    for (int chain = 0; chain < 4; ++chain) {
      auto prev = hub;
      for (int k = 0; k < 8; ++k) {
        if (net.pipe_count() - first_pipe >= 32) break;
        // Tapered mains: diameters shrink with the remaining demand so the
        // velocity stays turbulent even at the 0.3× night factor (the
        // solver's successive linearisation stalls in the transition regime).
        const auto next = net.add_junction(1.5 - 0.1 * k, 0.002);
        net.add_pipe(prev, next, util::metres(250.0),
                     util::millimetres(150.0 - 14.0 * k));
        prev = next;
      }
    }
  }
  return net;
}

}  // namespace aqua::hydro
