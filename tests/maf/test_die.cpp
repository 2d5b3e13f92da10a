#include "maf/die.hpp"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

namespace aqua::maf {
namespace {

using util::celsius;
using util::metres_per_second;
using util::Seconds;
using util::watts;

Environment still_water() {
  Environment env;
  env.speed = metres_per_second(0.0);
  env.fluid_temperature = celsius(15.0);
  env.pressure = util::bar(2.0);
  return env;
}

TEST(MafDie, ColdDieMatchesDatasheetResistances) {
  MafDie die{MafSpec{}};
  die.settle(still_water());
  // Unpowered die at 15 °C fluid: Rh = 50·(1 + 3.3e-3·(15−20)).
  EXPECT_NEAR(die.heater_a_resistance().value(), 50.0 * (1.0 - 3.3e-3 * 5.0),
              1e-6);
  EXPECT_NEAR(die.reference_resistance().value(),
              2000.0 * (1.0 - 3.3e-3 * 5.0), 1e-3);
}

TEST(MafDie, ToleranceDrawsWithinSpec) {
  util::Rng rng{21};
  for (int i = 0; i < 50; ++i) {
    MafDie die{MafSpec{}, rng};
    die.settle(still_water());
    EXPECT_NEAR(die.heater_a_resistance().value(), 49.175, 0.55);
    EXPECT_NEAR(die.reference_resistance().value(), 1967.0, 31.0);
  }
}

TEST(MafDie, PowerRaisesHeaterTemperature) {
  MafDie die{MafSpec{}};
  die.set_heater_powers(watts(0.005), watts(0.0), watts(0.0));
  die.settle(still_water());
  const auto t = die.temperatures();
  EXPECT_GT(t.heater_a.value(), celsius(16.0).value());
  EXPECT_NEAR(t.heater_b.value(), t.reference.value(), 3.0);  // B barely warms
}

TEST(MafDie, FlowCoolsTheHeater) {
  MafDie die{MafSpec{}};
  die.set_heater_powers(watts(0.005), watts(0.0), watts(0.0));
  Environment env = still_water();
  die.settle(env);
  const double t_still = die.temperatures().heater_a.value();
  env.speed = metres_per_second(1.0);
  die.settle(env);
  const double t_flow = die.temperatures().heater_a.value();
  EXPECT_LT(t_flow, t_still - 1.0);
}

TEST(MafDie, ResistanceTracksTemperature) {
  MafDie die{MafSpec{}};
  die.set_heater_powers(watts(0.004), watts(0.0), watts(0.0));
  die.settle(still_water());
  const double r_hot = die.heater_a_resistance().value();
  const double t_hot = die.temperatures().heater_a.value();
  const double expected =
      50.0 * (1.0 + 3.3e-3 * (t_hot - celsius(20.0).value()));
  EXPECT_NEAR(r_hot, expected, 1e-9);
}

TEST(MafDie, WakeWarmsDownstreamHeater) {
  MafDie die{MafSpec{}};
  Environment env = still_water();
  env.speed = metres_per_second(0.5);
  die.set_heater_powers(watts(0.004), watts(0.004), watts(0.0));
  die.settle(env);
  const auto fwd = die.temperatures();
  EXPECT_GT(fwd.heater_b.value(), fwd.heater_a.value() + 0.1);

  env.speed = metres_per_second(-0.5);
  die.settle(env);
  const auto rev = die.temperatures();
  EXPECT_GT(rev.heater_a.value(), rev.heater_b.value() + 0.1);
}

TEST(MafDie, WakeAsymmetryGrowsWithSpeedThenSaturates) {
  MafDie die{MafSpec{}};
  die.set_heater_powers(watts(0.004), watts(0.004), watts(0.0));
  auto imbalance = [&](double v) {
    Environment env = still_water();
    env.speed = metres_per_second(v);
    die.settle(env);
    const auto t = die.temperatures();
    return t.heater_b.value() - t.heater_a.value();
  };
  const double d_slow = imbalance(0.05);
  const double d_mid = imbalance(0.5);
  const double d_fast = imbalance(2.5);
  EXPECT_GT(d_mid, d_slow);
  // Saturation: the 0.5→2.5 gain is much smaller than the 0.05→0.5 gain.
  EXPECT_LT(d_fast - d_mid, d_mid - d_slow);
}

TEST(MafDie, StepConvergesToSettle) {
  MafDie die_a{MafSpec{}};
  MafDie die_b{MafSpec{}};
  Environment env = still_water();
  env.speed = metres_per_second(0.7);
  die_a.set_heater_powers(watts(0.005), watts(0.005), watts(0.001));
  die_b.set_heater_powers(watts(0.005), watts(0.005), watts(0.001));
  for (int i = 0; i < 200000; ++i) die_a.step(Seconds{5e-6}, env);
  die_b.settle(env);
  EXPECT_NEAR(die_a.temperatures().heater_a.value(),
              die_b.temperatures().heater_a.value(), 0.01);
}

TEST(MafDie, ThermalTimeConstantIsFast) {
  // Paper §4: "the response times are reasonably short, even in water".
  MafDie die{MafSpec{}};
  Environment env = still_water();
  env.speed = metres_per_second(1.0);
  die.settle(env);
  die.set_heater_powers(watts(0.005), watts(0.0), watts(0.0));
  // Step the power on and find the 63% rise time.
  die.settle(env);
  const double t_final = die.temperatures().heater_a.value();
  MafDie fresh{MafSpec{}};
  fresh.settle(env);
  const double t0 = fresh.temperatures().heater_a.value();
  fresh.set_heater_powers(watts(0.005), watts(0.0), watts(0.0));
  double elapsed = 0.0;
  while (fresh.temperatures().heater_a.value() <
             t0 + 0.632 * (t_final - t0) &&
         elapsed < 1.0) {
    fresh.step(Seconds{2e-6}, env);
    elapsed += 2e-6;
  }
  EXPECT_LT(elapsed, 0.01);  // well under 10 ms in water
}

TEST(MafDie, OverpressureBreaksMembraneAndLatches) {
  MafDie die{MafSpec{}};
  Environment env = still_water();
  env.pressure = util::bar(120.0);  // far beyond the qualified range
  die.step(Seconds{1e-5}, env);
  EXPECT_FALSE(die.membrane_intact());
  EXPECT_GT(die.heater_a_resistance().value(), 1e8);  // open circuit
  env.pressure = util::bar(1.0);  // damage is permanent
  die.step(Seconds{1e-5}, env);
  EXPECT_FALSE(die.membrane_intact());
}

TEST(MafDie, QualifiedPressureRangeSurvives) {
  MafDie die{MafSpec{}};
  Environment env = still_water();
  env.pressure = util::bar(7.0);  // the paper's peak
  for (int i = 0; i < 100; ++i) die.step(Seconds{1e-4}, env);
  EXPECT_TRUE(die.membrane_intact());
}

TEST(MafDie, CleanFilmConductanceGrowsWithSpeed) {
  MafDie die{MafSpec{}};
  Environment env = still_water();
  const auto wall = celsius(20.0);
  env.speed = metres_per_second(0.1);
  const double g1 = die.clean_film_conductance(env, wall);
  env.speed = metres_per_second(2.0);
  const double g2 = die.clean_film_conductance(env, wall);
  EXPECT_GT(g2, g1 * 1.5);
}

TEST(MafDie, AirModeHasMuchLowerConductance) {
  MafDie die{MafSpec{}};
  Environment water = still_water();
  Environment air = still_water();
  air.medium = phys::Medium::kAir;
  water.speed = air.speed = metres_per_second(1.0);
  const auto wall = celsius(40.0);
  EXPECT_GT(die.clean_film_conductance(water, wall),
            10.0 * die.clean_film_conductance(air, wall));
}

// --- the die's fixed thermal network -----------------------------------

TEST(ThermalNetwork, SingleNodeRelaxesToBoundary) {
  // Built at 15 °C, immersed in 30 °C water with no power: the reference, a
  // single node whose one edge (its film) ends on the fluid boundary, relaxes
  // to the fluid temperature, and so do the heaters, whose every path ends on
  // a boundary at the fluid temperature too.
  MafDie die{MafSpec{}};
  Environment env = still_water();
  env.fluid_temperature = celsius(30.0);
  for (int i = 0; i < 2000; ++i) die.step(Seconds{1e-4}, env);
  const auto t = die.temperatures();
  EXPECT_NEAR(util::to_celsius(t.heater_a), 30.0, 1e-6);
  EXPECT_NEAR(util::to_celsius(t.heater_b), 30.0, 1e-6);
  EXPECT_NEAR(util::to_celsius(t.reference), 30.0, 1e-6);
}

TEST(ThermalNetwork, ExponentialStepIsExactForOneNode) {
  // From the as-built 15 °C with only heater A powered, heater A's step is
  // T∞ + (T − T∞)·exp(−dt·Σg/C) with T∞ = (Σg·T + P)/Σg over its edges: the
  // film at the start-of-step wall temperature, the A–B coupling, the rim
  // edge and the backside path. Its unpowered neighbours stay at 15 °C.
  const MafSpec spec;
  MafDie die{spec};
  const Environment env = still_water();
  const double t0 = celsius(15.0).value();
  const double p = 5e-3, dt = 1e-4;
  die.set_heater_powers(watts(p), watts(0.0), watts(0.0));
  die.step(Seconds{dt}, env);

  const double g_edge =
      phys::edge_conductance(spec.membrane, spec.heater_wire.length);
  const double g_back = phys::backside_conductance(
      spec.membrane, spec.heater_wire.surface_area());
  const double g_film = die.clean_film_conductance(env, util::Kelvin{t0});
  const double sum_g = g_film + 0.5 * g_edge + g_edge + g_back;
  const double t_inf = t0 + p / sum_g;
  const double expected =
      t_inf + (t0 - t_inf) * std::exp(-dt * sum_g / spec.heater_capacitance);
  const auto t = die.temperatures();
  EXPECT_NEAR(t.heater_a.value(), expected, 1e-9);
  EXPECT_GT(t.heater_a.value() - t0, 1e-3);  // the step did move it
  EXPECT_NEAR(t.heater_b.value(), t0, 1e-9);  // neighbours at t0, no power
  EXPECT_NEAR(t.reference.value(), t0, 1e-9);
}

TEST(ThermalNetwork, StableForVeryLargeSteps) {
  // A hot die, powers off, stepped 1 s at a time (~10^4 time constants):
  // an explicit step would overshoot the fluid and oscillate; the
  // exponential one never passes it. The reference, whose only edge is its
  // film, lands on the fluid in one step; the heaters, coupled through the
  // membrane, close in on it geometrically.
  MafDie die{MafSpec{}};
  const Environment env = still_water();
  const double t_f = env.fluid_temperature.value();
  die.set_heater_powers(watts(5e-3), watts(3e-3), watts(2e-3));
  die.settle(env);
  auto prev = die.temperatures();
  ASSERT_GT(prev.heater_b.value(), t_f + 1.0);
  ASSERT_GT(prev.reference.value(), t_f + 1e-3);
  die.set_heater_powers(watts(0.0), watts(0.0), watts(0.0));
  for (int i = 0; i < 20; ++i) {
    die.step(Seconds{1.0}, env);
    const auto t = die.temperatures();
    EXPECT_NEAR(t.reference.value(), t_f, 1e-9) << i;
    for (const auto& [now, before] :
         {std::pair{t.heater_a.value(), prev.heater_a.value()},
          std::pair{t.heater_b.value(), prev.heater_b.value()}}) {
      EXPECT_GE(now, t_f - 1e-12) << i;
      EXPECT_LE(now, before + 1e-12) << i;
    }
    prev = t;
  }
  EXPECT_NEAR(prev.heater_a.value(), t_f, 1e-9);
  EXPECT_NEAR(prev.heater_b.value(), t_f, 1e-9);
}

TEST(ThermalNetwork, SettleMatchesLongIntegration) {
  // Forward flow (the wake warms heater B) and three powers: 0.1 s of
  // 10 µs steps reaches the state settle() solves for, to 1e-6 K.
  MafDie stepped{MafSpec{}};
  MafDie settled{MafSpec{}};
  Environment env = still_water();
  env.speed = metres_per_second(0.3);
  for (MafDie* die : {&stepped, &settled})
    die->set_heater_powers(watts(4e-3), watts(3e-3), watts(1e-3));
  for (int i = 0; i < 10000; ++i) stepped.step(Seconds{1e-5}, env);
  settled.settle(env);
  const auto a = stepped.temperatures();
  const auto b = settled.temperatures();
  EXPECT_NEAR(a.heater_a.value(), b.heater_a.value(), 1e-6);
  EXPECT_NEAR(a.heater_b.value(), b.heater_b.value(), 1e-6);
  EXPECT_NEAR(a.reference.value(), b.reference.value(), 1e-6);
}

TEST(ThermalNetwork, PowerInjectionSteadyState) {
  // At steady state each heater dissipates its power through its four
  // edges: P = g_film·(T − T_f) + g_AB·(T − T_other) + (g_edge + g_back)·
  // (T − T_f). The unequal powers make the A–B edge carry heat from the
  // hotter heater to the cooler one.
  const MafSpec spec;
  MafDie die{spec};
  const Environment env = still_water();
  const double p_a = 5e-3, p_b = 2e-3;
  die.set_heater_powers(watts(p_a), watts(p_b), watts(0.0));
  die.settle(env);
  const auto t = die.temperatures();
  const double t_f = env.fluid_temperature.value();
  const double g_edge =
      phys::edge_conductance(spec.membrane, spec.heater_wire.length);
  const double g_back = phys::backside_conductance(
      spec.membrane, spec.heater_wire.surface_area());
  const auto heat_out = [&](util::Kelvin wall, util::Kelvin other) {
    return die.clean_film_conductance(env, wall) * (wall.value() - t_f) +
           0.5 * g_edge * (wall.value() - other.value()) +
           (g_edge + g_back) * (wall.value() - t_f);
  };
  EXPECT_GT(t.heater_a.value(), t.heater_b.value() + 1.0);
  EXPECT_NEAR(heat_out(t.heater_a, t.heater_b), p_a, 1e-6 * p_a);
  EXPECT_NEAR(heat_out(t.heater_b, t.heater_a), p_b, 1e-6 * p_b);
}

TEST(ThermalNetwork, TwoNodeEnergyPartition) {
  // Only heater A powered, in still water (no wake): heater B sits between
  // heater A, through the A–B edge, and the fluid, through its film, rim edge
  // and backside path, so its rise over the fluid is A's rise split by the
  // conductance ratio g_AB / (g_AB + g_film + g_edge + g_back). B passes on
  // all the heat it takes across the membrane, and A's power leaves through
  // its own edges or across the membrane.
  const MafSpec spec;
  MafDie die{spec};
  const Environment env = still_water();
  const double p_a = 5e-3;
  die.set_heater_powers(watts(p_a), watts(0.0), watts(0.0));
  die.settle(env);
  const auto t = die.temperatures();
  const double t_f = env.fluid_temperature.value();
  const double g_edge =
      phys::edge_conductance(spec.membrane, spec.heater_wire.length);
  const double g_back = phys::backside_conductance(
      spec.membrane, spec.heater_wire.surface_area());
  const double g_ab = 0.5 * g_edge;
  const double g_out_a =
      die.clean_film_conductance(env, t.heater_a) + g_edge + g_back;
  const double g_out_b =
      die.clean_film_conductance(env, t.heater_b) + g_edge + g_back;
  const double rise_a = t.heater_a.value() - t_f;
  const double rise_b = t.heater_b.value() - t_f;
  EXPECT_GT(rise_b, 0.1);  // B does warm, though far less than A
  EXPECT_NEAR(rise_b, g_ab / (g_ab + g_out_b) * rise_a, 1e-6 * rise_b);
  const double across = g_ab * (t.heater_a.value() - t.heater_b.value());
  EXPECT_NEAR(g_out_b * rise_b, across, 1e-6 * across);
  EXPECT_NEAR(g_out_a * rise_a + across, p_a, 1e-6 * p_a);
}

TEST(ThermalNetwork, InputValidation) {
  // Every node needs a positive capacitance and every membrane edge a
  // non-negative conductance.
  MafSpec no_heat_capacity;
  no_heat_capacity.heater_capacitance = 0.0;
  EXPECT_THROW(MafDie{no_heat_capacity}, std::invalid_argument);
  MafSpec negative_reference;
  negative_reference.reference_capacitance = -1e-6;
  util::Rng rng{5};
  EXPECT_THROW((MafDie{negative_reference, rng}), std::invalid_argument);
  MafSpec negative_membrane;
  negative_membrane.membrane.stack_conductivity = -1.0;
  EXPECT_THROW(MafDie{negative_membrane}, std::invalid_argument);
}

// 64-bit FNV-1a.
struct Fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void add(std::span<const std::uint8_t> bytes) {
    for (const std::uint8_t byte : bytes) {
      h ^= byte;
      h *= 0x100000001b3ull;
    }
  }
  void add(double v) {
    const auto bits = std::bit_cast<std::array<std::uint8_t, 8>>(v);
    add(bits);
  }
};

std::vector<std::uint8_t> image_of(const MafDie& die) {
  state::Writer w;
  die.save_state(w);
  return w.take();
}

std::uint64_t image_hash(const MafDie& die) {
  Fnv1a f;
  f.add(image_of(die));
  return f.h;
}

TEST(MafDie, StepReproducesTheParentImage) {
  // A toleranced die through every path of step(): powers that change every
  // tick; zero, forward and reverse flow (the Re = 0 film and both wake
  // branches); hard water whose saturation temperature (~25 °C) the heaters
  // cross, so clean walls both skip their deposit rate and grow a deposit;
  // bubbles and a deposit set through the fouling ports; a checkpoint round
  // trip into a fresh die; an overpressure tick; and a final settle(). Every
  // tick's temperature bits and the final image are pinned to the values the
  // general graph network this die's fixed network replaced produced.
  const MafSpec spec;
  util::Rng rng_first{83};
  util::Rng rng_second{83};
  MafDie first{spec, rng_first};
  MafDie second{spec, rng_second};  // the same part, restored mid-run
  MafDie* die = &first;

  Environment env = still_water();
  env.pressure = util::bar(1.0);
  env.dissolved_gas_saturation = 1.3;
  env.chemistry = phys::WaterChemistry{300.0, 300.0, 8.0};
  const double drive = phys::scaling_drive(env.chemistry);
  const Seconds dt{1.0 / 16000.0};

  Fnv1a ticks;
  int clean_undersaturated = 0, clean_supersaturated = 0;
  for (int i = 0; i < 8000; ++i) {
    const int phase = i / 2000;
    const double ramp = 1e-4 * (i % 2000);
    env.speed = metres_per_second(phase == 1   ? 0.02 + ramp
                                  : phase == 2 ? -0.03 - ramp
                                               : 0.0);
    env.fluid_temperature = celsius(15.0 + 0.001 * (i % 3000));
    env.pressure = util::bar(i == 7600 ? 120.0 : 1.0);
    die->set_heater_powers(watts(2e-3 + 5e-6 * ((i * 37) % 1000)),
                           watts(1.5e-3 + 5e-6 * ((i * 53) % 1000)),
                           watts(1e-4 + 1e-7 * (i % 100)));
    if (i == 1000) die->fouling_a().set_bubble_coverage(0.4);
    if (i == 3000) die->fouling_b().set_deposit_thickness(3e-7);
    if (i == 5000) {
      const std::vector<std::uint8_t> image = image_of(first);
      state::Reader r{image};
      second.load_state(r);
      ASSERT_EQ(image_hash(second), image_hash(first));
      die = &second;
    }
    if (i == 6500) die->fouling_b().set_deposit_thickness(0.0);
    const bool clean_a = die->fouling_a().deposit_thickness() == 0.0;
    die->step(dt, env);
    const auto t = die->temperatures();
    if (clean_a) {
      if (phys::saturation_ratio(drive, t.heater_a) < 1.0)
        ++clean_undersaturated;
      else
        ++clean_supersaturated;
    }
    ticks.add(t.heater_a.value());
    ticks.add(t.heater_b.value());
    ticks.add(t.reference.value());
  }
  env.speed = metres_per_second(0.0);
  die->settle(env);

  EXPECT_GT(clean_undersaturated, 0);
  EXPECT_GT(clean_supersaturated, 0);
  EXPECT_GT(die->fouling_a().deposit_thickness(), 0.0);
  EXPECT_GT(die->fouling_b().deposit_thickness(), 0.0);
  EXPECT_GT(die->fouling_a().bubble_coverage(), 0.0);
  EXPECT_FALSE(die->membrane_intact());
  EXPECT_EQ(ticks.h, 0xec819880f1b55e4bull) << std::hex << ticks.h;
  EXPECT_EQ(image_hash(*die), 0xd671817206133ae1ull)
      << std::hex << image_hash(*die);
}

// --- restored images -----------------------------------------------------

// A die image as its fields, so that a test can forge one of them and write
// the rest back as save_state wrote them.
struct DieImage {
  std::array<double, 4> fouling{};  // coverage and deposit of A, then of B
  std::array<double, 14> nodes{};   // 7 × (temperature, power)
  std::array<double, 8> conductances{};
  bool membrane_intact = true;

  static DieImage of(const MafDie& die) {
    const std::vector<std::uint8_t> bytes = image_of(die);
    state::Reader r{bytes};
    DieImage img;
    for (double& v : img.fouling) v = r.f64();
    EXPECT_EQ(r.size(), 7u);
    for (double& v : img.nodes) v = r.f64();
    EXPECT_EQ(r.size(), 8u);
    for (double& v : img.conductances) v = r.f64();
    img.membrane_intact = r.boolean();
    r.expect_end();
    return img;
  }

  [[nodiscard]] std::vector<std::uint8_t> bytes() const {
    state::Writer w;
    for (const double v : fouling) w.f64(v);
    w.size(7);
    for (const double v : nodes) w.f64(v);
    w.size(8);
    for (const double v : conductances) w.f64(v);
    w.boolean(membrane_intact);
    return w.take();
  }
};

// A die that has run: warm heaters, film conductances, a little fouling.
MafDie running_die() {
  MafDie die{MafSpec{}};
  Environment env = still_water();
  env.speed = metres_per_second(0.2);
  die.set_heater_powers(watts(4e-3), watts(4e-3), watts(1e-4));
  die.fouling_a().set_bubble_coverage(0.2);
  die.fouling_b().set_deposit_thickness(1e-7);
  for (int i = 0; i < 100; ++i) die.step(Seconds{1.0 / 16000.0}, env);
  return die;
}

// Loads `forged` into a running die, which must refuse it with state::Error
// and keep its image.
void expect_refused(const DieImage& forged) {
  MafDie die = running_die();
  const std::vector<std::uint8_t> before = image_of(die);
  const std::vector<std::uint8_t> bytes = forged.bytes();
  state::Reader r{bytes};
  EXPECT_THROW(die.load_state(r), state::Error);
  EXPECT_EQ(image_of(die), before);
}

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

TEST(MafDie, LoadStateRestoresTheImageItWrote) {
  // The field-by-field image is the die's own, and a fresh die restores it.
  const MafDie die = running_die();
  const DieImage img = DieImage::of(die);
  EXPECT_EQ(img.bytes(), image_of(die));
  MafDie fresh{MafSpec{}};
  const std::vector<std::uint8_t> bytes = img.bytes();
  state::Reader r{bytes};
  fresh.load_state(r);
  r.expect_end();
  EXPECT_EQ(image_of(fresh), image_of(die));
}

TEST(MafDie, LoadStateRefusesANegativeConductance) {
  // set_conductance refused a negative film at run time; a restore must too.
  DieImage img = DieImage::of(running_die());
  img.conductances[3] = -1e-6;  // the A–B coupling
  expect_refused(img);
}

TEST(MafDie, LoadStateRefusesANaNConductance) {
  DieImage img = DieImage::of(running_die());
  img.conductances[0] = kNaN;  // heater A's film
  expect_refused(img);
}

TEST(MafDie, LoadStateRefusesANaNTemperature) {
  DieImage img = DieImage::of(running_die());
  img.nodes[2 * 1] = kNaN;  // heater B
  expect_refused(img);
}

TEST(MafDie, LoadStateRefusesABoundaryPower) {
  // The fixed network injects power into heater A, heater B and the
  // reference only; a power on the substrate would be dropped silently.
  DieImage img = DieImage::of(running_die());
  img.nodes[2 * 6 + 1] = 1e-3;  // the substrate
  expect_refused(img);
}

TEST(MafDie, LoadStateRefusesABubbleCoverageOutsideTheClamp) {
  // step() and the fault port clamp the coverage to [0, 0.95].
  for (const double coverage : {-0.01, 0.96, kNaN}) {
    DieImage img = DieImage::of(running_die());
    img.fouling[0] = coverage;  // heater A
    expect_refused(img);
  }
}

TEST(MafDie, LoadStateRefusesANegativeDeposit) {
  // A negative deposit would throw later from deposit_thermal_resistance,
  // inside a fleet worker's epoch; a running surface never holds -0.0.
  for (const double deposit : {-1e-9, -0.0}) {
    DieImage img = DieImage::of(running_die());
    img.fouling[3] = deposit;  // heater B
    expect_refused(img);
  }
}

}  // namespace
}  // namespace aqua::maf
