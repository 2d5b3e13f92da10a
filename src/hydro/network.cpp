#include "hydro/network.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "hydro/profiles.hpp"
#include "phys/fluid.hpp"
#include "util/math.hpp"

namespace aqua::hydro {

using util::Metres;
using util::MetresPerSecond;

namespace {
constexpr double kGravity = 9.80665;
constexpr double kPi = 3.14159265358979323846;
}  // namespace

WaterNetwork::NodeId WaterNetwork::add_junction(double elevation_m,
                                                double demand_m3s) {
  if (!std::isfinite(elevation_m) || !std::isfinite(demand_m3s))
    throw std::invalid_argument("WaterNetwork: non-finite junction");
  nodes_.push_back(Node{false, elevation_m, demand_m3s, 0.0, elevation_m + 20.0});
  return nodes_.size() - 1;
}

WaterNetwork::NodeId WaterNetwork::add_reservoir(double head_m) {
  if (!std::isfinite(head_m))
    throw std::invalid_argument("WaterNetwork: non-finite reservoir head");
  nodes_.push_back(Node{true, head_m, 0.0, 0.0, head_m});
  return nodes_.size() - 1;
}

WaterNetwork::PipeId WaterNetwork::add_pipe(NodeId from, NodeId to,
                                            Metres length, Metres diameter,
                                            double roughness_mm) {
  if (from >= nodes_.size() || to >= nodes_.size() || from == to)
    throw std::invalid_argument("WaterNetwork: bad pipe endpoints");
  const auto positive = [](double x) { return std::isfinite(x) && x > 0.0; };
  if (!positive(length.value()) || !positive(diameter.value()) ||
      !std::isfinite(roughness_mm))
    throw std::invalid_argument("WaterNetwork: bad pipe geometry");
  pipes_.push_back(Pipe{from, to, length.value(), diameter.value(),
                        roughness_mm * 1e-3, 0.0});
  return pipes_.size() - 1;
}

void WaterNetwork::set_demand(NodeId junction, double demand_m3s) {
  if (junction >= nodes_.size() || nodes_[junction].reservoir)
    throw std::invalid_argument("WaterNetwork: set_demand needs a junction");
  if (!std::isfinite(demand_m3s))
    throw std::invalid_argument("WaterNetwork: non-finite demand");
  nodes_[junction].demand = demand_m3s;
}

void WaterNetwork::scale_demands(double factor) {
  if (factor < 0.0)
    throw std::invalid_argument("WaterNetwork: negative demand factor");
  if (!std::isfinite(factor))
    throw std::invalid_argument("WaterNetwork: non-finite demand factor");
  for (Node& n : nodes_)
    if (!n.reservoir) n.demand *= factor;
}

void WaterNetwork::set_pipe_open(PipeId p, bool open) {
  if (p >= pipes_.size()) throw std::out_of_range("WaterNetwork: bad pipe");
  pipes_[p].open = open;
  if (!open) pipes_[p].flow = 0.0;
}

bool WaterNetwork::pipe_open(PipeId p) const {
  if (p >= pipes_.size()) throw std::out_of_range("WaterNetwork: bad pipe");
  return pipes_[p].open;
}

void WaterNetwork::set_leak(NodeId junction, double emitter_coefficient) {
  if (junction >= nodes_.size() || nodes_[junction].reservoir)
    throw std::invalid_argument("WaterNetwork: set_leak needs a junction");
  if (emitter_coefficient < 0.0)
    throw std::invalid_argument("WaterNetwork: negative emitter coefficient");
  if (!std::isfinite(emitter_coefficient))
    throw std::invalid_argument("WaterNetwork: non-finite emitter coefficient");
  nodes_[junction].emitter = emitter_coefficient;
}

bool WaterNetwork::solve(util::Kelvin water_temperature) {
  const auto props = phys::water_properties(water_temperature);
  // Map junctions to unknown indices. A junction with no open incident pipe
  // is hydraulically disconnected (an isolated section): it depressurises to
  // its elevation and leaves the system.
  std::vector<bool> connected(nodes_.size(), false);
  for (const Pipe& p : pipes_) {
    if (!p.open) continue;
    connected[p.from] = true;
    connected[p.to] = true;
  }
  std::vector<std::size_t> unknown_of(nodes_.size(), SIZE_MAX);
  std::size_t n_unknown = 0;
  bool has_reservoir = false;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].reservoir) {
      has_reservoir = true;
    } else if (connected[i]) {
      unknown_of[i] = n_unknown++;
    } else {
      nodes_[i].head = nodes_[i].elevation;  // isolated: zero pressure head
    }
  }
  if (!has_reservoir)
    throw std::logic_error("WaterNetwork: needs at least one reservoir");
  if (n_unknown == 0) return true;

  // The nodal matrix holds a diagonal entry per unknown and a symmetric pair
  // per open pipe between two unknowns. The structure is fixed for this
  // call, so each sweep refills the same slots: per pipe, (from, from),
  // (from, to), (to, to) and (to, from), where both ends are unknowns.
  std::vector<util::SparseSystem::Entry> links;
  for (const Pipe& p : pipes_) {
    const std::size_t uf = unknown_of[p.from];
    const std::size_t ut = unknown_of[p.to];
    if (!p.open || uf == SIZE_MAX || ut == SIZE_MAX) continue;
    links.push_back({uf, ut});
    links.push_back({ut, uf});
  }
  util::SparseSystem system(n_unknown, links);
  struct Slots {
    std::size_t ff = SIZE_MAX, ft = SIZE_MAX, tt = SIZE_MAX, tf = SIZE_MAX;
  };
  std::vector<Slots> slots(pipes_.size());
  for (std::size_t i = 0; i < pipes_.size(); ++i) {
    const std::size_t uf = unknown_of[pipes_[i].from];
    const std::size_t ut = unknown_of[pipes_[i].to];
    if (!pipes_[i].open) continue;
    if (uf != SIZE_MAX) slots[i].ff = system.slot(uf, uf);
    if (ut != SIZE_MAX) slots[i].tt = system.slot(ut, ut);
    if (uf != SIZE_MAX && ut != SIZE_MAX) {
      slots[i].ft = system.slot(uf, ut);
      slots[i].tf = system.slot(ut, uf);
    }
  }
  // K·max(|q|, q_floor) per pipe: the sweep's linearised resistance, used by
  // both the assembly and the flow update.
  std::vector<double> resistance(pipes_.size(), 0.0);
  std::vector<double> b(n_unknown, 0.0);

  // Successive linearisation: Δh = K·q·|q|  →  q ≈ Δh / (K·|q_prev|), with a
  // laminar-style floor so the first sweep is well-posed.
  for (int iter = 0; iter < 200; ++iter) {
    system.clear();
    std::fill(b.begin(), b.end(), 0.0);
    const std::span<double> a = system.values();

    for (std::size_t i = 0; i < pipes_.size(); ++i) {
      const Pipe& p = pipes_[i];
      if (!p.open) continue;
      const double area = kPi * 0.25 * p.diameter * p.diameter;
      const double v = std::abs(p.flow) / area;
      const double re = std::max(
          10.0, pipe_reynolds(props, MetresPerSecond{v}, Metres{p.diameter}));
      const double f = darcy_friction_factor(re, p.roughness / p.diameter);
      const double k =
          f * p.length / (p.diameter * 2.0 * kGravity * area * area);
      const double q_floor = 1e-5;  // m³/s
      resistance[i] = k * std::max(std::abs(p.flow), q_floor);
      const double g = 1.0 / resistance[i];

      const Node& nf = nodes_[p.from];
      const Node& nt = nodes_[p.to];
      const std::size_t uf = unknown_of[p.from];
      const std::size_t ut = unknown_of[p.to];
      if (uf != SIZE_MAX) {
        a[slots[i].ff] += g;
        if (ut != SIZE_MAX)
          a[slots[i].ft] -= g;
        else
          b[uf] += g * nt.head;
      }
      if (ut != SIZE_MAX) {
        a[slots[i].tt] += g;
        if (uf != SIZE_MAX)
          a[slots[i].tf] -= g;
        else
          b[ut] += g * nf.head;
      }
    }

    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      const std::size_t u = unknown_of[i];
      if (u == SIZE_MAX) continue;
      // Demand leaves the node; leak handled as a demand from the previous
      // head iterate (fixed-point).
      b[u] -= nodes_[i].demand + leak_flow(i);
    }

    try {
      system.solve(b);  // b now holds the heads
    } catch (const std::invalid_argument&) {
      return false;  // disconnected component or degenerate system
    }

    // Update node heads (with damping) and pipe flows. A non-finite head
    // never converges.
    double max_delta = 0.0;
    bool finite = true;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      const std::size_t u = unknown_of[i];
      if (u == SIZE_MAX) continue;
      const double new_head = 0.5 * (nodes_[i].head + b[u]);
      max_delta = std::max(max_delta, std::abs(new_head - nodes_[i].head));
      finite = finite && std::isfinite(new_head);
      nodes_[i].head = new_head;
    }
    for (std::size_t i = 0; i < pipes_.size(); ++i) {
      Pipe& p = pipes_[i];
      if (!p.open) {
        p.flow = 0.0;
        continue;
      }
      const double dh = nodes_[p.from].head - nodes_[p.to].head;
      p.flow = dh / resistance[i];
    }
    if (!finite) return false;
    if (max_delta < 1e-7 && iter > 3) return true;
  }
  return false;
}

WaterNetwork::NodeId WaterNetwork::pipe_from(PipeId p) const {
  if (p >= pipes_.size()) throw std::out_of_range("WaterNetwork: bad pipe");
  return pipes_[p].from;
}

WaterNetwork::NodeId WaterNetwork::pipe_to(PipeId p) const {
  if (p >= pipes_.size()) throw std::out_of_range("WaterNetwork: bad pipe");
  return pipes_[p].to;
}

Metres WaterNetwork::pipe_diameter(PipeId p) const {
  if (p >= pipes_.size()) throw std::out_of_range("WaterNetwork: bad pipe");
  return Metres{pipes_[p].diameter};
}

double WaterNetwork::node_demand(NodeId n) const {
  if (n >= nodes_.size()) throw std::out_of_range("WaterNetwork: bad node");
  return nodes_[n].reservoir ? 0.0 : nodes_[n].demand;
}

bool WaterNetwork::node_is_reservoir(NodeId n) const {
  if (n >= nodes_.size()) throw std::out_of_range("WaterNetwork: bad node");
  return nodes_[n].reservoir;
}

double WaterNetwork::node_head(NodeId n) const {
  if (n >= nodes_.size()) throw std::out_of_range("WaterNetwork: bad node");
  return nodes_[n].head;
}

double WaterNetwork::node_pressure_head(NodeId n) const {
  if (n >= nodes_.size()) throw std::out_of_range("WaterNetwork: bad node");
  return nodes_[n].reservoir ? 0.0 : nodes_[n].head - nodes_[n].elevation;
}

double WaterNetwork::pipe_flow(PipeId p) const {
  if (p >= pipes_.size()) throw std::out_of_range("WaterNetwork: bad pipe");
  return pipes_[p].flow;
}

MetresPerSecond WaterNetwork::pipe_velocity(PipeId p) const {
  if (p >= pipes_.size()) throw std::out_of_range("WaterNetwork: bad pipe");
  const Pipe& pipe = pipes_[p];
  const double area = kPi * 0.25 * pipe.diameter * pipe.diameter;
  return MetresPerSecond{pipe.flow / area};
}

double WaterNetwork::leak_flow(NodeId n) const {
  if (n >= nodes_.size()) throw std::out_of_range("WaterNetwork: bad node");
  const Node& node = nodes_[n];
  if (node.reservoir || node.emitter <= 0.0) return 0.0;
  const double pressure_head = std::max(0.0, node.head - node.elevation);
  return node.emitter * std::sqrt(pressure_head);
}

double WaterNetwork::total_outflow() const {
  double acc = 0.0;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].reservoir) continue;
    acc += nodes_[i].demand + leak_flow(i);
  }
  return acc;
}

}  // namespace aqua::hydro
