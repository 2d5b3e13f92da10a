// thermal.hpp — lumped-parameter thermal network with exponential-Euler
// stepping. The MAF die model is a stiff system (a ~2 µm membrane element in
// water has a time constant of tens of microseconds while experiments run for
// minutes), so each capacitive node is relaxed analytically toward the
// temperature implied by its neighbours over the step:
//
//   T⁺ = T∞ + (T − T∞)·exp(−dt·ΣG/C),  T∞ = (Σ G_i·T_i + P) / ΣG
//
// which is unconditionally stable and exact for a single node with frozen
// neighbours. Conductances may be updated every step (flow-dependent film
// coefficients, growing deposits).
#pragma once

#include <cstddef>
#include <vector>

#include "state/serial.hpp"
#include "util/units.hpp"

namespace aqua::phys {

class ThermalNetwork {
 public:
  using NodeId = std::size_t;
  using EdgeId = std::size_t;

  /// Adds a capacitive node (state variable). Capacitance in J/K.
  NodeId add_node(double capacitance, util::Kelvin initial);

  /// Adds a boundary node with a prescribed temperature (infinite capacitance).
  NodeId add_boundary(util::Kelvin temperature);

  /// Connects two nodes with thermal conductance g (W/K). Returns an edge id
  /// whose conductance can be updated later.
  EdgeId connect(NodeId a, NodeId b, double conductance);

  void set_conductance(EdgeId e, double conductance);
  [[nodiscard]] double conductance(EdgeId e) const;

  void set_boundary_temperature(NodeId n, util::Kelvin t);

  /// Sets the power (W) injected into a node for subsequent steps (Joule
  /// heating of the bridge resistors). Persists until changed.
  void set_power(NodeId n, util::Watts p);

  /// Advances all capacitive nodes by dt.
  void step(util::Seconds dt);

  /// Solves the steady state (all capacitive nodes relaxed) in place. Used by
  /// the quasi-static path of long-duration experiments.
  void settle();

  /// Restores every node temperature, boundary temperature, injected power and
  /// edge conductance to its as-built value. Topology is untouched.
  void reset();

  [[nodiscard]] util::Kelvin temperature(NodeId n) const;
  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }

  /// Checkpoint support: per-node temperature and power, per-edge
  /// conductance. Topology and adjacency are not serialised: they are
  /// rebuilt by construction.
  void save_state(state::Writer& w) const {
    w.size(nodes_.size());
    for (const Node& n : nodes_) {
      w.f64(n.temperature);
      w.f64(n.power);
    }
    w.size(edges_.size());
    for (const Edge& e : edges_) w.f64(e.g);
  }
  void load_state(state::Reader& r) {
    if (r.size(16) != nodes_.size())
      throw state::Error("ThermalNetwork: node count mismatch");
    for (Node& n : nodes_) {
      n.temperature = r.f64();
      n.power = r.f64();
    }
    if (r.size(8) != edges_.size())
      throw state::Error("ThermalNetwork: edge count mismatch");
    for (Edge& e : edges_) e.g = r.f64();
  }

 private:
  struct Node {
    double capacitance;  // J/K; <= 0 marks a boundary node
    double temperature;  // K
    double power = 0.0;  // W
    bool boundary = false;
    double initial_temperature = 0.0;  // K, as built (for reset)
  };
  struct Edge {
    NodeId a, b;
    double g;
    double initial_g;  // as built (for reset)
  };
  /// One node→edge incidence entry: the edge and the node on its far side.
  struct Incidence {
    EdgeId edge;
    NodeId other;
  };

  void check_node(NodeId n) const;
  /// (Re)builds the CSR-style node→edge index if topology changed since the
  /// last build. Per node, incident edges appear in increasing edge id — the
  /// same order the edge-major scan visits them, so switching the sweeps to
  /// the index preserves FP accumulation order.
  void ensure_adjacency() const;

  std::vector<Node> nodes_;
  std::vector<Edge> edges_;

  // CSR adjacency: incidence entries of node n live at
  // adjacency_[adjacency_start_[n] .. adjacency_start_[n+1]). Built lazily on
  // first step()/settle(), invalidated by connect()/add_node/add_boundary.
  mutable std::vector<Incidence> adjacency_;
  mutable std::vector<std::size_t> adjacency_start_;
  mutable bool adjacency_valid_ = false;

  std::vector<double> new_temps_;  // scratch: staged temperatures for step()
};

}  // namespace aqua::phys
