#include "phys/thermal.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace aqua::phys {

using util::Kelvin;
using util::Seconds;
using util::Watts;

ThermalNetwork::NodeId ThermalNetwork::add_node(double capacitance,
                                                Kelvin initial) {
  if (capacitance <= 0.0)
    throw std::invalid_argument("ThermalNetwork: capacitance must be positive");
  nodes_.push_back(Node{capacitance, initial.value(), 0.0, false, initial.value()});
  adjacency_valid_ = false;
  return nodes_.size() - 1;
}

ThermalNetwork::NodeId ThermalNetwork::add_boundary(Kelvin temperature) {
  nodes_.push_back(Node{0.0, temperature.value(), 0.0, true, temperature.value()});
  adjacency_valid_ = false;
  return nodes_.size() - 1;
}

ThermalNetwork::EdgeId ThermalNetwork::connect(NodeId a, NodeId b,
                                               double conductance) {
  check_node(a);
  check_node(b);
  if (conductance < 0.0)
    throw std::invalid_argument("ThermalNetwork: negative conductance");
  edges_.push_back(Edge{a, b, conductance, conductance});
  adjacency_valid_ = false;
  return edges_.size() - 1;
}

void ThermalNetwork::ensure_adjacency() const {
  if (adjacency_valid_) return;
  const std::size_t n = nodes_.size();
  adjacency_start_.assign(n + 1, 0);
  for (const Edge& e : edges_) {
    ++adjacency_start_[e.a + 1];
    ++adjacency_start_[e.b + 1];
  }
  for (std::size_t i = 0; i < n; ++i)
    adjacency_start_[i + 1] += adjacency_start_[i];
  adjacency_.resize(2 * edges_.size());
  std::vector<std::size_t> cursor(adjacency_start_.begin(),
                                  adjacency_start_.end() - 1);
  // Filling in edge order keeps each node's incidence list sorted by edge id,
  // matching the edge-major accumulation order (FP-order preservation).
  for (EdgeId e = 0; e < edges_.size(); ++e) {
    adjacency_[cursor[edges_[e].a]++] = Incidence{e, edges_[e].b};
    adjacency_[cursor[edges_[e].b]++] = Incidence{e, edges_[e].a};
  }
  adjacency_valid_ = true;
}

void ThermalNetwork::set_conductance(EdgeId e, double conductance) {
  if (e >= edges_.size()) throw std::out_of_range("ThermalNetwork: bad edge id");
  if (conductance < 0.0)
    throw std::invalid_argument("ThermalNetwork: negative conductance");
  edges_[e].g = conductance;
}

double ThermalNetwork::conductance(EdgeId e) const {
  if (e >= edges_.size()) throw std::out_of_range("ThermalNetwork: bad edge id");
  return edges_[e].g;
}

void ThermalNetwork::set_boundary_temperature(NodeId n, Kelvin t) {
  check_node(n);
  if (!nodes_[n].boundary)
    throw std::invalid_argument("ThermalNetwork: node is not a boundary");
  nodes_[n].temperature = t.value();
}

void ThermalNetwork::set_power(NodeId n, Watts p) {
  check_node(n);
  nodes_[n].power = p.value();
}

void ThermalNetwork::step(Seconds dt) {
  ensure_adjacency();
  const std::size_t n = nodes_.size();
  if (decay_arg_.size() != n) {
    decay_arg_.assign(n, std::numeric_limits<double>::quiet_NaN());
    decay_val_.assign(n, 0.0);
  }
  new_temps_.resize(n);

  // Jacobi update: every node relaxes against its neighbours' temperatures
  // at the start of the step, so the new values are staged and committed
  // after the sweep.
  for (std::size_t i = 0; i < n; ++i) {
    const Node& node = nodes_[i];
    if (node.boundary) {
      new_temps_[i] = node.temperature;
      continue;
    }
    double sum_g = 0.0, sum_gt = 0.0;
    const std::size_t end = adjacency_start_[i + 1];
    for (std::size_t k = adjacency_start_[i]; k < end; ++k) {
      const Incidence& inc = adjacency_[k];
      const double g = edges_[inc.edge].g;
      sum_g += g;
      sum_gt += g * nodes_[inc.other].temperature;
    }
    if (sum_g <= 0.0) {
      // Isolated node: pure integration of injected power.
      new_temps_[i] = node.temperature + node.power * dt.value() / node.capacitance;
      continue;
    }
    const double t_inf = (sum_gt + node.power) / sum_g;
    // Memoized decay: recompute the exponential only when its exact argument
    // changed (flow-dependent conductances); bit-identical either way.
    const double arg = -dt.value() * sum_g / node.capacitance;
    if (arg != decay_arg_[i]) {
      decay_arg_[i] = arg;
      decay_val_[i] = std::exp(arg);
    }
    new_temps_[i] = t_inf + (node.temperature - t_inf) * decay_val_[i];
  }
  for (std::size_t i = 0; i < n; ++i) nodes_[i].temperature = new_temps_[i];
}

void ThermalNetwork::settle() {
  // Gauss-Seidel relaxation to the algebraic steady state; the networks used
  // here are tiny (≤ 8 nodes) and diagonally dominant, so this converges
  // fast. Each node's incident edges come from the precomputed CSR index
  // (O(N + E) per sweep instead of the O(N·E) edge rescan).
  ensure_adjacency();
  for (int iter = 0; iter < 500; ++iter) {
    double max_delta = 0.0;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      Node& node = nodes_[i];
      if (node.boundary) continue;
      double g = 0.0, gt = 0.0;
      const std::size_t end = adjacency_start_[i + 1];
      for (std::size_t k = adjacency_start_[i]; k < end; ++k) {
        const Incidence& inc = adjacency_[k];
        g += edges_[inc.edge].g;
        gt += edges_[inc.edge].g * nodes_[inc.other].temperature;
      }
      if (g <= 0.0) continue;
      const double t_new = (gt + node.power) / g;
      max_delta = std::max(max_delta, std::abs(t_new - node.temperature));
      node.temperature = t_new;
    }
    if (max_delta < 1e-9) break;
  }
}

void ThermalNetwork::reset() {
  for (Node& node : nodes_) {
    node.temperature = node.initial_temperature;
    node.power = 0.0;
  }
  for (Edge& e : edges_) e.g = e.initial_g;
}

Kelvin ThermalNetwork::temperature(NodeId n) const {
  check_node(n);
  return Kelvin{nodes_[n].temperature};
}

void ThermalNetwork::check_node(NodeId n) const {
  if (n >= nodes_.size()) throw std::out_of_range("ThermalNetwork: bad node id");
}

}  // namespace aqua::phys
