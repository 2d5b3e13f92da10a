// network.hpp — steady-state hydraulic solver for a small water-distribution
// network. The paper's motivation (§6) is "diffusive monitoring in water
// distribution networks": many cheap insertion sensors spread over the pipes
// so that "any malfunction behaviour (e.g. water loss in tube)" can be
// "immediately localized and isolated". This module provides the network
// substrate for that application: junctions with demands, reservoirs with
// fixed heads, Darcy–Weisbach pipes, and pressure-dependent leak emitters.
//
// The solver iterates successive linearisation of the head-loss relation
// Δh = K(q)·q·|q| (friction factor refreshed from Re each sweep), assembling
// a nodal linear system solved by util::SparseSystem: the dense solver's
// partial-pivot elimination on the matrix's structural nonzeros and fill
// only, bit-identical to it and O(nonzeros + fill) in memory, so districts
// of a thousand junctions solve in milliseconds.
#pragma once

#include <cstddef>
#include <vector>

#include "state/serial.hpp"
#include "util/units.hpp"

namespace aqua::hydro {

class WaterNetwork {
 public:
  using NodeId = std::size_t;
  using PipeId = std::size_t;

  // add_junction, add_reservoir, add_pipe, set_demand, scale_demands and
  // set_leak throw std::invalid_argument on a non-finite argument.

  /// Junction with a consumer demand (m³/s) at the given elevation.
  NodeId add_junction(double elevation_m, double demand_m3s = 0.0);

  /// Reservoir/tank with a fixed hydraulic head (m).
  NodeId add_reservoir(double head_m);

  PipeId add_pipe(NodeId from, NodeId to, util::Metres length,
                  util::Metres diameter, double roughness_mm = 0.1);

  void set_demand(NodeId junction, double demand_m3s);

  /// Scales every junction demand by `factor` (diurnal pattern: night flow
  /// ~0.3, morning peak ~1.6 of the base demand).
  void scale_demands(double factor);

  /// Opens/closes an isolation valve on a pipe. A closed pipe carries
  /// (essentially) no flow — the "isolated" step of the paper's
  /// leak-management vision.
  void set_pipe_open(PipeId p, bool open);
  [[nodiscard]] bool pipe_open(PipeId p) const;

  /// Leak emitter at a junction: q_leak = C·√(pressure head). C in
  /// m³/s per √m; 0 removes the leak.
  void set_leak(NodeId junction, double emitter_coefficient);

  /// Solves the network. Returns false if the iteration failed to converge,
  /// hit a singular system (a component without a reservoir) or produced a
  /// non-finite head. Every sweep overwrites the heads and flows, so a false
  /// return leaves the last, non-converged iterate in place, not the
  /// previous solution; the next solve starts from it.
  [[nodiscard]] bool solve(util::Kelvin water_temperature = util::celsius(15.0));

  // --- topology/geometry accessors (fleet attachment, mass-balance checks) ---
  [[nodiscard]] NodeId pipe_from(PipeId p) const;
  [[nodiscard]] NodeId pipe_to(PipeId p) const;
  [[nodiscard]] util::Metres pipe_diameter(PipeId p) const;
  [[nodiscard]] double node_demand(NodeId n) const;  ///< m³/s (0 for reservoirs)
  [[nodiscard]] bool node_is_reservoir(NodeId n) const;

  [[nodiscard]] double node_head(NodeId n) const;
  /// Pressure head above elevation (m of water column).
  [[nodiscard]] double node_pressure_head(NodeId n) const;
  [[nodiscard]] double pipe_flow(PipeId p) const;  ///< m³/s, from→to positive
  [[nodiscard]] util::MetresPerSecond pipe_velocity(PipeId p) const;
  [[nodiscard]] double leak_flow(NodeId n) const;  ///< m³/s out of the network

  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] std::size_t pipe_count() const { return pipes_.size(); }
  /// Total demand + leak outflow (m³/s) — mass-balance checks in tests.
  [[nodiscard]] double total_outflow() const;

  /// Checkpoint support: demands, emitters, valve states and — critically for
  /// bit-identical resume — the last solution (heads and flows), which seeds
  /// the next solve's successive linearisation.
  void save_state(state::Writer& w) const {
    w.size(nodes_.size());
    for (const Node& n : nodes_) {
      w.f64(n.demand);
      w.f64(n.emitter);
      w.f64(n.head);
    }
    w.size(pipes_.size());
    for (const Pipe& p : pipes_) {
      w.f64(p.flow);
      w.boolean(p.open);
    }
  }
  void load_state(state::Reader& r) {
    if (r.size(24) != nodes_.size())
      throw state::Error("WaterNetwork: node count mismatch");
    for (Node& n : nodes_) {
      n.demand = r.f64();
      n.emitter = r.f64();
      n.head = r.f64();
    }
    if (r.size(9) != pipes_.size())
      throw state::Error("WaterNetwork: pipe count mismatch");
    for (Pipe& p : pipes_) {
      p.flow = r.f64();
      p.open = r.boolean();
    }
  }

 private:
  struct Node {
    bool reservoir;
    double elevation;  // m (junction) — reservoirs store head here
    double demand = 0.0;
    double emitter = 0.0;
    double head = 0.0;  // solution
  };
  struct Pipe {
    NodeId from, to;
    double length, diameter, roughness;  // m, m, m
    double flow = 0.0;                   // solution, m³/s
    bool open = true;
  };

  std::vector<Node> nodes_;
  std::vector<Pipe> pipes_;
};

}  // namespace aqua::hydro
