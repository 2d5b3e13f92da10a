#include "phys/thermal.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace aqua::phys {
namespace {

using util::celsius;
using util::Seconds;
using util::watts;

TEST(ThermalNetwork, SingleNodeRelaxesToBoundary) {
  ThermalNetwork net;
  const auto node = net.add_node(1.0, celsius(50.0));
  const auto bath = net.add_boundary(celsius(20.0));
  net.connect(node, bath, 2.0);  // tau = C/G = 0.5 s
  for (int i = 0; i < 100; ++i) net.step(Seconds{0.1});
  EXPECT_NEAR(util::to_celsius(net.temperature(node)), 20.0, 1e-6);
}

TEST(ThermalNetwork, ExponentialStepIsExactForOneNode) {
  ThermalNetwork net;
  const auto node = net.add_node(1.0, celsius(50.0));
  const auto bath = net.add_boundary(celsius(20.0));
  net.connect(node, bath, 2.0);
  net.step(Seconds{0.25});  // one big step: exact exp(-dt/tau)
  const double expected = 20.0 + 30.0 * std::exp(-0.25 / 0.5);
  EXPECT_NEAR(util::to_celsius(net.temperature(node)), expected, 1e-9);
}

TEST(ThermalNetwork, PowerInjectionSteadyState) {
  ThermalNetwork net;
  const auto node = net.add_node(1e-3, celsius(20.0));
  const auto bath = net.add_boundary(celsius(20.0));
  net.connect(node, bath, 0.5);
  net.set_power(node, watts(1.0));  // ΔT = P/G = 2 K
  for (int i = 0; i < 10000; ++i) net.step(Seconds{1e-3});
  EXPECT_NEAR(util::to_celsius(net.temperature(node)), 22.0, 1e-6);
}

TEST(ThermalNetwork, StableForVeryLargeSteps) {
  // Stiff case: tiny capacitance, big conductance, dt >> tau.
  ThermalNetwork net;
  const auto node = net.add_node(1e-8, celsius(90.0));
  const auto bath = net.add_boundary(celsius(10.0));
  net.connect(node, bath, 1.0);  // tau = 10 ns
  net.step(Seconds{1.0});        // 1e8 times tau
  EXPECT_NEAR(util::to_celsius(net.temperature(node)), 10.0, 1e-9);
}

TEST(ThermalNetwork, SettleMatchesLongIntegration) {
  ThermalNetwork net;
  const auto a = net.add_node(1e-4, celsius(20.0));
  const auto b = net.add_node(2e-4, celsius(20.0));
  const auto bath = net.add_boundary(celsius(15.0));
  net.connect(a, b, 0.3);
  net.connect(b, bath, 0.7);
  net.connect(a, bath, 0.1);
  net.set_power(a, watts(0.05));

  ThermalNetwork net2 = net;  // value semantics: same topology/state
  for (int i = 0; i < 200000; ++i) net.step(Seconds{1e-4});
  net2.settle();
  EXPECT_NEAR(net.temperature(a).value(), net2.temperature(a).value(), 1e-6);
  EXPECT_NEAR(net.temperature(b).value(), net2.temperature(b).value(), 1e-6);
}

TEST(ThermalNetwork, TwoNodeEnergyPartition) {
  // Node heated between two baths splits ΔT by conductance ratio.
  ThermalNetwork net;
  const auto node = net.add_node(1e-3, celsius(0.0));
  const auto hot = net.add_boundary(celsius(100.0));
  const auto cold = net.add_boundary(celsius(0.0));
  net.connect(node, hot, 1.0);
  net.connect(node, cold, 3.0);
  net.settle();
  EXPECT_NEAR(util::to_celsius(net.temperature(node)), 25.0, 1e-9);
}

TEST(ThermalNetwork, ConductanceUpdate) {
  ThermalNetwork net;
  const auto node = net.add_node(1e-3, celsius(20.0));
  const auto bath = net.add_boundary(celsius(20.0));
  const auto edge = net.connect(node, bath, 0.5);
  net.set_power(node, watts(1.0));
  net.settle();
  EXPECT_NEAR(util::to_celsius(net.temperature(node)), 22.0, 1e-9);
  net.set_conductance(edge, 1.0);
  net.settle();
  EXPECT_NEAR(util::to_celsius(net.temperature(node)), 21.0, 1e-9);
  EXPECT_DOUBLE_EQ(net.conductance(edge), 1.0);
}

TEST(ThermalNetwork, IsolatedNodeIntegratesPower) {
  ThermalNetwork net;
  const auto node = net.add_node(2.0, celsius(20.0));
  net.set_power(node, watts(4.0));
  net.step(Seconds{1.0});  // dT = P·dt/C = 2 K
  EXPECT_NEAR(util::to_celsius(net.temperature(node)), 22.0, 1e-12);
}

TEST(ThermalNetwork, BoundaryTemperatureUpdates) {
  ThermalNetwork net;
  const auto node = net.add_node(1e-6, celsius(20.0));
  const auto bath = net.add_boundary(celsius(20.0));
  net.connect(node, bath, 1.0);
  net.set_boundary_temperature(bath, celsius(35.0));
  net.settle();
  EXPECT_NEAR(util::to_celsius(net.temperature(node)), 35.0, 1e-9);
}

TEST(ThermalNetwork, DecayCacheTransparentAcrossDtChanges) {
  // Each step's decay exp(−dt·Σg/C) must follow that step's dt. A single
  // node relaxing to a bath has the closed form T = Tb + (T0−Tb)·Πexp(−dtᵢ/τ),
  // so stepping dt1, dt1, dt2, dt1 exposes a decay carried over from an
  // earlier step: reusing dt2's decay for the final dt1 step would miss the
  // expected value by far more than rounding.
  ThermalNetwork net;
  const double cap = 1e-6, g = 2e-3;  // tau = 0.5 ms
  const auto n = net.add_node(cap, celsius(40.0));
  const auto bath = net.add_boundary(celsius(20.0));
  net.connect(n, bath, g);
  const double dts[] = {1e-4, 1e-4, 2.5e-4, 1e-4};
  double expected_delta = 20.0;
  for (const double dt : dts) {
    net.step(Seconds{dt});
    expected_delta *= std::exp(-dt * g / cap);
  }
  EXPECT_NEAR(net.temperature(n).value() - celsius(20.0).value(),
              expected_delta, 1e-9);
}

TEST(ThermalNetwork, DecayCacheInvalidatedByConductanceChange) {
  // Changing an edge conductance changes Σg/C; the next step must decay with
  // the new value and land exactly where a twin stepped the same way does.
  ThermalNetwork net;
  const auto n = net.add_node(1e-6, celsius(30.0));
  const auto bath = net.add_boundary(celsius(20.0));
  const auto e = net.connect(n, bath, 1e-3);
  net.step(Seconds{1e-3});  // one step at g = 1e-3 first
  net.set_conductance(e, 4e-3);
  net.step(Seconds{1e-3});

  ThermalNetwork twin;
  const auto tn = twin.add_node(1e-6, celsius(30.0));
  const auto tb = twin.add_boundary(celsius(20.0));
  (void)twin.connect(tn, tb, 1e-3);
  twin.step(Seconds{1e-3});
  twin.set_conductance(0, 4e-3);
  twin.step(Seconds{1e-3});
  EXPECT_EQ(net.temperature(n).value(), twin.temperature(tn).value());
  // Closed form: τ = C/g is 1 ms, then 0.25 ms.
  EXPECT_NEAR(net.temperature(n).value() - celsius(20.0).value(),
              10.0 * std::exp(-1.0) * std::exp(-4.0), 1e-9);
}

TEST(ThermalNetwork, StepAfterSettleUsesSameAdjacency) {
  // settle() and step() share the CSR adjacency; growing the network after a
  // settle must rebuild it rather than read stale rows.
  ThermalNetwork net;
  const auto a = net.add_node(1e-6, celsius(25.0));
  const auto bath = net.add_boundary(celsius(15.0));
  net.connect(a, bath, 2e-3);
  net.settle();
  EXPECT_NEAR(util::to_celsius(net.temperature(a)), 15.0, 1e-9);
  const auto b = net.add_node(1e-6, celsius(40.0));
  net.connect(a, b, 2e-3);
  net.settle();
  EXPECT_NEAR(util::to_celsius(net.temperature(b)), 15.0, 1e-6);
  net.set_power(b, watts(1e-3));
  net.step(Seconds{1e-3});
  EXPECT_GT(net.temperature(b).value(), net.temperature(a).value());
}

TEST(ThermalNetwork, InputValidation) {
  ThermalNetwork net;
  EXPECT_THROW((void)net.add_node(0.0, celsius(20.0)), std::invalid_argument);
  const auto n = net.add_node(1.0, celsius(20.0));
  EXPECT_THROW((void)net.connect(n, 99, 1.0), std::out_of_range);
  EXPECT_THROW((void)net.connect(n, n, -1.0), std::invalid_argument);
  EXPECT_THROW(net.set_boundary_temperature(n, celsius(0.0)),
               std::invalid_argument);
  EXPECT_THROW((void)net.temperature(99), std::out_of_range);
}

}  // namespace
}  // namespace aqua::phys
