#include "hydro/network.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "fleet/fleet.hpp"
#include "hydro/profiles.hpp"
#include "phys/fluid.hpp"
#include "replicated_district.hpp"

namespace aqua::hydro {
namespace {

using util::metres;
using util::millimetres;

TEST(WaterNetwork, SinglePipeDeliversDemand) {
  WaterNetwork net;
  const auto res = net.add_reservoir(50.0);
  const auto j = net.add_junction(0.0, 0.01);  // 10 L/s
  const auto p = net.add_pipe(res, j, metres(500.0), millimetres(150.0));
  ASSERT_TRUE(net.solve());
  EXPECT_NEAR(net.pipe_flow(p), 0.01, 1e-6);
  EXPECT_LT(net.node_head(j), 50.0);  // head loss along the pipe
  EXPECT_GT(net.node_head(j), 0.0);
}

TEST(WaterNetwork, HeadLossMatchesDarcyWeisbach) {
  WaterNetwork net;
  const auto res = net.add_reservoir(80.0);
  const auto j = net.add_junction(0.0, 0.02);
  net.add_pipe(res, j, metres(1000.0), millimetres(200.0), 0.1);
  ASSERT_TRUE(net.solve());
  const double v = net.pipe_velocity(0).value();
  const auto props = phys::water_properties(util::celsius(15.0));
  const auto dp = pressure_drop(props, util::MetresPerSecond{v},
                                millimetres(200.0), metres(1000.0),
                                0.1e-3 / 0.2);
  const double head_loss_m = dp.value() / (props.density * 9.80665);
  EXPECT_NEAR(80.0 - net.node_head(j), head_loss_m, 0.05 * head_loss_m + 0.01);
}

TEST(WaterNetwork, ParallelPipesShareFlow) {
  WaterNetwork net;
  const auto res = net.add_reservoir(60.0);
  const auto j = net.add_junction(0.0, 0.03);
  const auto p1 = net.add_pipe(res, j, metres(800.0), millimetres(150.0));
  const auto p2 = net.add_pipe(res, j, metres(800.0), millimetres(150.0));
  ASSERT_TRUE(net.solve());
  EXPECT_NEAR(net.pipe_flow(p1), net.pipe_flow(p2), 1e-6);
  EXPECT_NEAR(net.pipe_flow(p1) + net.pipe_flow(p2), 0.03, 1e-5);
}

TEST(WaterNetwork, WiderPipeCarriesMore) {
  WaterNetwork net;
  const auto res = net.add_reservoir(60.0);
  const auto j = net.add_junction(0.0, 0.03);
  const auto narrow = net.add_pipe(res, j, metres(800.0), millimetres(100.0));
  const auto wide = net.add_pipe(res, j, metres(800.0), millimetres(200.0));
  ASSERT_TRUE(net.solve());
  EXPECT_GT(net.pipe_flow(wide), 3.0 * net.pipe_flow(narrow));
}

TEST(WaterNetwork, MassConservationAtJunctions) {
  // Y network: reservoir → A → {B, C} with demands at B and C.
  WaterNetwork net;
  const auto res = net.add_reservoir(70.0);
  const auto a = net.add_junction(0.0, 0.0);
  const auto b = net.add_junction(0.0, 0.008);
  const auto c = net.add_junction(0.0, 0.012);
  const auto p_in = net.add_pipe(res, a, metres(300.0), millimetres(200.0));
  const auto p_b = net.add_pipe(a, b, metres(400.0), millimetres(150.0));
  const auto p_c = net.add_pipe(a, c, metres(400.0), millimetres(150.0));
  ASSERT_TRUE(net.solve());
  EXPECT_NEAR(net.pipe_flow(p_in), net.pipe_flow(p_b) + net.pipe_flow(p_c),
              1e-6);
  EXPECT_NEAR(net.pipe_flow(p_in), 0.02, 1e-5);
}

TEST(WaterNetwork, LeakIncreasesInflowAndDropsPressure) {
  WaterNetwork net;
  const auto res = net.add_reservoir(50.0);
  const auto a = net.add_junction(0.0, 0.005);
  const auto b = net.add_junction(0.0, 0.005);
  const auto p_in = net.add_pipe(res, a, metres(600.0), millimetres(150.0));
  net.add_pipe(a, b, metres(600.0), millimetres(100.0));
  ASSERT_TRUE(net.solve());
  const double inflow_before = net.pipe_flow(p_in);
  const double head_before = net.node_head(b);

  net.set_leak(b, 5e-4);
  ASSERT_TRUE(net.solve());
  EXPECT_GT(net.pipe_flow(p_in), inflow_before + 1e-4);
  EXPECT_LT(net.node_head(b), head_before);
  EXPECT_GT(net.leak_flow(b), 0.0);
  EXPECT_NEAR(net.total_outflow(), net.pipe_flow(p_in), 1e-5);
}

TEST(WaterNetwork, LoopNetworkConverges) {
  // Classic two-loop grid.
  WaterNetwork net;
  const auto res = net.add_reservoir(60.0);
  const auto n1 = net.add_junction(0.0, 0.005);
  const auto n2 = net.add_junction(0.0, 0.01);
  const auto n3 = net.add_junction(0.0, 0.005);
  const auto n4 = net.add_junction(0.0, 0.01);
  net.add_pipe(res, n1, metres(200.0), millimetres(200.0));
  net.add_pipe(n1, n2, metres(400.0), millimetres(150.0));
  net.add_pipe(n1, n3, metres(400.0), millimetres(150.0));
  net.add_pipe(n2, n4, metres(400.0), millimetres(100.0));
  net.add_pipe(n3, n4, metres(400.0), millimetres(100.0));
  net.add_pipe(n2, n3, metres(300.0), millimetres(100.0));
  ASSERT_TRUE(net.solve());
  // All junction heads below the reservoir, all positive.
  for (auto n : {n1, n2, n3, n4}) {
    EXPECT_LT(net.node_head(n), 60.0);
    EXPECT_GT(net.node_head(n), 0.0);
  }
}

TEST(WaterNetwork, PipeVelocityConsistentWithFlow) {
  WaterNetwork net;
  const auto res = net.add_reservoir(40.0);
  const auto j = net.add_junction(0.0, 0.01);
  const auto p = net.add_pipe(res, j, metres(100.0), millimetres(100.0));
  ASSERT_TRUE(net.solve());
  const double area = 3.14159265358979 * 0.25 * 0.1 * 0.1;
  EXPECT_NEAR(net.pipe_velocity(p).value(), net.pipe_flow(p) / area, 1e-9);
}

TEST(WaterNetwork, ClosedPipeCarriesNoFlow) {
  // Isolation valves: the "isolated" step of the paper's §6 vision.
  WaterNetwork net;
  const auto res = net.add_reservoir(60.0);
  const auto j = net.add_junction(0.0, 0.02);
  const auto p1 = net.add_pipe(res, j, metres(500.0), millimetres(150.0));
  const auto p2 = net.add_pipe(res, j, metres(500.0), millimetres(150.0));
  ASSERT_TRUE(net.solve());
  EXPECT_GT(net.pipe_flow(p2), 0.005);

  net.set_pipe_open(p2, false);
  ASSERT_TRUE(net.solve());
  EXPECT_TRUE(net.pipe_open(p1));
  EXPECT_FALSE(net.pipe_open(p2));
  EXPECT_NEAR(net.pipe_flow(p2), 0.0, 1e-9);
  EXPECT_NEAR(net.pipe_flow(p1), 0.02, 1e-4);  // all demand reroutes

  net.set_pipe_open(p2, true);
  ASSERT_TRUE(net.solve());
  EXPECT_GT(net.pipe_flow(p2), 0.005);
}

TEST(WaterNetwork, IsolatingALeakStopsIt) {
  WaterNetwork net;
  const auto res = net.add_reservoir(50.0);
  const auto a = net.add_junction(0.0, 0.004);
  const auto b = net.add_junction(0.0, 0.0);
  (void)net.add_pipe(res, a, metres(400.0), millimetres(150.0));
  const auto spur = net.add_pipe(a, b, metres(300.0), millimetres(80.0));
  net.set_leak(b, 1e-3);
  ASSERT_TRUE(net.solve());
  EXPECT_GT(net.leak_flow(b), 1e-3);

  net.set_pipe_open(spur, false);  // close the spur feeding the burst
  ASSERT_TRUE(net.solve());
  // Node b depressurises; the leak loses its supply.
  EXPECT_NEAR(net.leak_flow(b), 0.0, 1e-4);
}

TEST(WaterNetwork, DemandScalingDiurnalPattern) {
  WaterNetwork net;
  const auto res = net.add_reservoir(50.0);
  const auto j = net.add_junction(0.0, 0.01);
  const auto p = net.add_pipe(res, j, metres(400.0), millimetres(150.0));
  ASSERT_TRUE(net.solve());
  const double day_flow = net.pipe_flow(p);
  net.scale_demands(0.3);  // night
  ASSERT_TRUE(net.solve());
  EXPECT_NEAR(net.pipe_flow(p), 0.3 * day_flow, 1e-4);
  EXPECT_THROW(net.scale_demands(-1.0), std::invalid_argument);
}

TEST(WaterNetwork, Validation) {
  WaterNetwork net;
  const auto res = net.add_reservoir(10.0);
  const auto j = net.add_junction(0.0);
  EXPECT_THROW((void)net.add_pipe(res, res, metres(1.0), millimetres(100.0)),
               std::invalid_argument);
  EXPECT_THROW((void)net.add_pipe(res, 99, metres(1.0), millimetres(100.0)),
               std::invalid_argument);
  EXPECT_THROW(net.set_demand(res, 0.1), std::invalid_argument);
  EXPECT_THROW(net.set_leak(res, 0.1), std::invalid_argument);
  EXPECT_THROW(net.set_leak(j, -0.1), std::invalid_argument);
  WaterNetwork no_res;
  no_res.add_junction(0.0, 0.01);
  EXPECT_THROW((void)no_res.solve(), std::logic_error);

  // Non-finite inputs are refused where they enter, not solved into NaN.
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(net.set_demand(j, kNaN), std::invalid_argument);
  EXPECT_THROW(net.set_demand(j, kInf), std::invalid_argument);
  EXPECT_THROW(net.scale_demands(kNaN), std::invalid_argument);
  EXPECT_THROW(net.scale_demands(kInf), std::invalid_argument);
  EXPECT_THROW(net.set_leak(j, kNaN), std::invalid_argument);
  EXPECT_THROW(net.set_leak(j, kInf), std::invalid_argument);
  EXPECT_THROW((void)net.add_junction(kNaN), std::invalid_argument);
  EXPECT_THROW((void)net.add_junction(0.0, kInf), std::invalid_argument);
  EXPECT_THROW((void)net.add_reservoir(kNaN), std::invalid_argument);
  EXPECT_THROW((void)net.add_pipe(res, j, metres(kNaN), millimetres(100.0)),
               std::invalid_argument);
  EXPECT_THROW((void)net.add_pipe(res, j, metres(1.0), millimetres(kInf)),
               std::invalid_argument);
  EXPECT_THROW(
      (void)net.add_pipe(res, j, metres(1.0), millimetres(100.0), kNaN),
      std::invalid_argument);
  EXPECT_EQ(net.node_count(), 2u);
  EXPECT_EQ(net.pipe_count(), 0u);

  // A finite demand whose heads overflow must not read as converged.
  WaterNetwork huge;
  const auto top = huge.add_reservoir(50.0);
  const auto a = huge.add_junction(0.0, 0.005);
  const auto b = huge.add_junction(0.0, 1e306);
  (void)huge.add_pipe(top, a, metres(600.0), millimetres(150.0));
  (void)huge.add_pipe(a, b, metres(600.0), millimetres(100.0));
  EXPECT_FALSE(huge.solve());
}

// FNV-1a over the bits of every head, then every flow.
std::uint64_t solution_hash(const WaterNetwork& net) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](double v) {
    h ^= std::bit_cast<std::uint64_t>(v);
    h *= 0x100000001b3ull;
  };
  for (WaterNetwork::NodeId n = 0; n < net.node_count(); ++n)
    mix(net.node_head(n));
  for (WaterNetwork::PipeId p = 0; p < net.pipe_count(); ++p)
    mix(net.pipe_flow(p));
  return h;
}

// The diurnal-dma workload's network sequence: a cold solve at the pattern's
// t = 0, then one solve per 0.25 s epoch for 20 epochs of an 8 s day, each
// warm-started from the last. Returns how many solves converged.
int run_diurnal_epochs(WaterNetwork& net) {
  std::vector<double> base(net.node_count());
  for (WaterNetwork::NodeId n = 0; n < net.node_count(); ++n)
    base[n] = net.node_demand(n);
  const auto pattern = fleet::diurnal_demand_pattern(util::Seconds{8.0});
  const auto apply = [&](double factor) {
    for (WaterNetwork::NodeId n = 0; n < net.node_count(); ++n)
      if (!net.node_is_reservoir(n)) net.set_demand(n, base[n] * factor);
  };
  apply(pattern.at(util::Seconds{0.0}));
  int converged = net.solve() ? 1 : 0;
  for (int epoch = 0; epoch < 20; ++epoch) {
    apply(pattern.at(util::Seconds{0.25 * epoch}));
    converged += net.solve() ? 1 : 0;
  }
  return converged;
}

// Pins the 1024-unknown district bit for bit. The constants were computed
// with the dense solver, before the nodal solve went sparse.
TEST(WaterNetwork, DistrictDiurnalSolvesMatchThePinnedHash) {
  WaterNetwork net = replicated_district(32);
  EXPECT_EQ(run_diurnal_epochs(net), 21);
  EXPECT_EQ(solution_hash(net), 0xaca1d0824e956cc5ull);
}

TEST(WaterNetwork, DistrictWithClosedPipeAndLeakMatchesThePinnedHash) {
  WaterNetwork net = replicated_district(32);
  net.set_pipe_open(8, false);  // the first chain's last pipe: a dead end
  net.set_leak(45, 2e-4);       // a junction of the second replica
  EXPECT_EQ(run_diurnal_epochs(net), 21);
  EXPECT_EQ(net.node_pressure_head(9), 0.0);  // isolated behind the valve
  EXPECT_GT(net.leak_flow(45), 0.0);
  EXPECT_EQ(solution_hash(net), 0xa4d85e914ab29135ull);
}

}  // namespace
}  // namespace aqua::hydro
