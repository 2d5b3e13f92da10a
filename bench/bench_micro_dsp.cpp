// Microbenchmarks (google-benchmark) for the hot kernels of the simulation
// and conditioning stack: justify that full-campaign simulations (hundreds of
// simulated seconds at the modulator clock) complete in minutes.
#include <benchmark/benchmark.h>

#include <functional>
#include <vector>

#include "analog/amplifier.hpp"
#include "analog/sigma_delta.hpp"
#include "core/cta.hpp"
#include "core/rig.hpp"
#include "dsp/biquad.hpp"
#include "dsp/cic.hpp"
#include "dsp/fir.hpp"
#include "dsp/pid.hpp"
#include "hydro/network.hpp"
#include "hydro/replicated_district.hpp"
#include "isif/channel.hpp"
#include "isif/dac_ctrl.hpp"
#include "maf/die.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace aqua;

void BM_BiquadCascade(benchmark::State& state) {
  auto filter = dsp::design_butterworth_lowpass(
      static_cast<int>(state.range(0)), util::hertz(100.0), util::hertz(10e3));
  double x = 0.1;
  for (auto _ : state) {
    x = filter.process(x * 0.999 + 0.001);
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_BiquadCascade)->Arg(2)->Arg(4)->Arg(8);

void BM_Fir(benchmark::State& state) {
  dsp::FirFilter fir{dsp::design_fir_lowpass(
      static_cast<std::size_t>(state.range(0)), util::hertz(100.0),
      util::hertz(10e3))};
  double x = 0.1;
  for (auto _ : state) {
    x = fir.process(x * 0.999 + 0.001);
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_Fir)->Arg(16)->Arg(64)->Arg(256);

void BM_CicPush(benchmark::State& state) {
  dsp::CicDecimator cic{3, static_cast<int>(state.range(0))};
  int bit = 1;
  for (auto _ : state) {
    bit = -bit;
    benchmark::DoNotOptimize(cic.push(bit));
  }
}
BENCHMARK(BM_CicPush)->Arg(32)->Arg(128);

void BM_PiUpdate(benchmark::State& state) {
  dsp::PidController pi{{0.6, 30.0, 0.0}, {0.0, 1.0}, util::hertz(2000.0)};
  double e = 0.01;
  for (auto _ : state) {
    e = -e;
    benchmark::DoNotOptimize(pi.update(e));
  }
}
BENCHMARK(BM_PiUpdate);

void BM_SigmaDeltaStep(benchmark::State& state) {
  analog::SigmaDeltaModulator sd{{}, util::Rng{1}};
  double v = 0.1;
  for (auto _ : state) {
    v = -v;
    benchmark::DoNotOptimize(sd.step(util::Volts{v}));
  }
}
BENCHMARK(BM_SigmaDeltaStep);

void BM_ChannelTick(benchmark::State& state) {
  isif::InputChannel ch{isif::ChannelConfig{}, util::Rng{2}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(ch.tick(util::millivolts(3.0)));
  }
}
BENCHMARK(BM_ChannelTick);

// --- per-tick stages vs the fused frame (DESIGN.md §9) ---------------------
// BM_ChannelTick above times one modulator sample per iteration, so its rate
// against BM_ChannelFrame's items_per_second is the fused-frame speedup
// bench_fleet reports as channel_block_over_scalar; BM_AmpStep isolates one
// per-tick stage.

void BM_AmpStep(benchmark::State& state) {
  analog::InstrumentAmp amp{{}, util::hertz(256e3), util::Rng{11}};
  const util::Seconds dt{1.0 / 256e3};
  double x = 1e-3;
  for (auto _ : state) {
    x = -x;
    benchmark::DoNotOptimize(amp.step(util::Volts{x}, dt));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AmpStep);

void BM_ChannelFrame(benchmark::State& state) {
  isif::InputChannel ch{isif::ChannelConfig{}, util::Rng{2}};
  const int frame = ch.config().decimation;
  std::vector<double> in(static_cast<std::size_t>(frame), 3e-3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ch.process_frame(in));
  }
  state.SetItemsProcessed(state.iterations() * frame);
}
BENCHMARK(BM_ChannelFrame);

void BM_FullAnemometerFrame(benchmark::State& state) {
  util::Rng rng{3};
  cta::CtaAnemometer anemo{maf::MafSpec{}, cta::fast_isif_config(),
                           cta::CtaConfig{}, rng};
  maf::Environment env;
  env.speed = util::metres_per_second(1.0);
  const int frame = anemo.platform().config().channel.decimation;
  for (auto _ : state) {
    anemo.tick_frame(env);
    benchmark::DoNotOptimize(anemo.bridge_voltage());
  }
  state.SetItemsProcessed(state.iterations() * frame);
}
BENCHMARK(BM_FullAnemometerFrame);

// The frame every fleet workload pays: coarse ISIF (16 kHz, 8 ticks per
// frame) at a night-flow speed, a new speed each frame as turbulence gives
// it. items_per_second counts modulator ticks.
void BM_CoarseAnemometerFrame(benchmark::State& state) {
  util::Rng rng{3};
  cta::CtaAnemometer anemo{maf::MafSpec{}, cta::coarse_isif_config(),
                           cta::CtaConfig{}, rng};
  maf::Environment env;
  const int frame = anemo.platform().config().channel.decimation;
  double wobble = 0.0;
  for (auto _ : state) {
    wobble = wobble > 0.004 ? 0.0 : wobble + 0.001;
    env.speed = util::metres_per_second(0.2 + wobble);
    anemo.tick_frame(env);
    benchmark::DoNotOptimize(anemo.bridge_voltage());
  }
  state.SetItemsProcessed(state.iterations() * frame);
}
BENCHMARK(BM_CoarseAnemometerFrame);

// The bridge-supply DAC's per-tick path as night-1k drives it: one
// DacController::update_with_decay per 16 kHz tick and a new code every 8
// ticks (one per decimation frame), stepping 16–255 codes at a time within
// codes 128–1279, three 512-code pages of the mismatch table. The walk is
// drawn before timing, and the first pass fills the pages. items_per_second
// counts ticks.
void BM_SupplyDacWalk(benchmark::State& state) {
  isif::DacController dac{cta::coarse_isif_config().dac12, util::Rng{5}};
  std::vector<int> walk(4096);
  util::Rng rng{9};
  int code = 128;
  for (int& target : walk) {
    const int step = 16 + static_cast<int>(rng.below(240));
    code += rng.bernoulli(0.5) ? step : -step;
    if (code < 128) code = 256 - code;    // reflect off the band's edges
    if (code > 1279) code = 2558 - code;
    target = code;
  }
  const double decay = dac.settling_decay(util::Seconds{1.0 / 16000.0});
  std::size_t next = 0;
  int tick = 0;
  for (auto _ : state) {
    if (tick == 0) {
      dac.request_code(walk[next]);
      next = (next + 1) % walk.size();
    }
    tick = (tick + 1) % 8;
    benchmark::DoNotOptimize(dac.update_with_decay(decay));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SupplyDacWalk);

// One die step at a fixed environment, computing its environment-only terms
// each step as the die's other callers do.
void BM_MafDieStep(benchmark::State& state) {
  maf::MafDie die{maf::MafSpec{}};
  maf::Environment env;
  env.speed = util::metres_per_second(1.0);
  die.set_heater_powers(util::milliwatts(5.0), util::milliwatts(5.0),
                        util::milliwatts(1.0));
  for (auto _ : state) {
    die.step(util::Seconds{4e-6}, env);
    benchmark::DoNotOptimize(die.heater_a_resistance());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MafDieStep);

// One die step as a fleet sensor takes it: at the 16 kHz modulator tick,
// with the environment-only terms computed once, as tick_frame() computes
// them once per frame. A clean wall in still water (Arg 0) and at 0.2 m/s
// (Arg 200, in mm/s).
void BM_MafDieStepWithTerms(benchmark::State& state) {
  maf::MafDie die{maf::MafSpec{}};
  maf::Environment env;
  env.speed = util::metres_per_second(1e-3 * static_cast<double>(state.range(0)));
  die.set_heater_powers(util::milliwatts(5.0), util::milliwatts(5.0),
                        util::milliwatts(1.0));
  const maf::MafDie::StepTerms terms = die.step_terms(env);
  const util::Seconds dt{1.0 / 16000.0};
  for (auto _ : state) {
    die.step(dt, env, terms);
    benchmark::DoNotOptimize(die.heater_a_resistance());
  }
  if (die.fouling_a().deposit_thickness() != 0.0)
    state.SkipWithError("the wall is not clean");
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MafDieStepWithTerms)->Arg(0)->Arg(200);

void BM_FullAnemometerTick(benchmark::State& state) {
  util::Rng rng{3};
  cta::CtaAnemometer anemo{maf::MafSpec{}, cta::fast_isif_config(),
                           cta::CtaConfig{}, rng};
  maf::Environment env;
  env.speed = util::metres_per_second(1.0);
  for (auto _ : state) {
    anemo.tick(env);
    benchmark::DoNotOptimize(anemo.bridge_voltage());
  }
  state.counters["sim_s_per_wall_s"] = benchmark::Counter(
      1.0 / 64e3, benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_FullAnemometerTick);

void BM_NetworkSolve(benchmark::State& state) {
  hydro::WaterNetwork net;
  const auto res = net.add_reservoir(55.0);
  std::vector<hydro::WaterNetwork::NodeId> nodes;
  const auto n_nodes = static_cast<std::size_t>(state.range(0));
  for (std::size_t i = 0; i < n_nodes; ++i)
    nodes.push_back(net.add_junction(0.0, 0.002));
  (void)net.add_pipe(res, nodes[0], util::metres(300.0),
                     util::millimetres(200.0));
  for (std::size_t i = 1; i < nodes.size(); ++i)
    (void)net.add_pipe(nodes[i - 1], nodes[i], util::metres(300.0),
                       util::millimetres(120.0));
  for (std::size_t i = 2; i < nodes.size(); i += 2)
    (void)net.add_pipe(nodes[i - 2], nodes[i], util::metres(500.0),
                       util::millimetres(80.0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.solve());
  }
}
BENCHMARK(BM_NetworkSolve)->Arg(6)->Arg(20);

// hydro::replicated_district at range(0) replicas: at 32, the 1024-unknown
// network of the end-to-end diurnal-dma workload. Times a warm solve, like
// BM_NetworkSolve.
void BM_NetworkSolveDistrict(benchmark::State& state) {
  const auto replicas = static_cast<std::size_t>(state.range(0));
  hydro::WaterNetwork net = hydro::replicated_district(replicas);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.solve());
  }
  state.counters["unknowns"] =
      static_cast<double>(net.node_count() - replicas);
}
BENCHMARK(BM_NetworkSolveDistrict)->Arg(32)->Unit(benchmark::kMicrosecond);

// The pool's fork/join as the fleet drives it, on pool(4). Args {4, 0}: four
// empty bodies, the hand-off and per-worker stay timing every pooled epoch
// pays. Args {1024, 1}: a ~1 µs body per index, a 1024-sensor epoch of very
// cheap sensors. Real time per call: the caller sleeps while workers run.
void BM_PoolParallelFor(benchmark::State& state) {
  util::ThreadPool pool{4};
  const auto n = static_cast<std::size_t>(state.range(0));
  const bool busy = state.range(1) != 0;
  std::vector<double> sink(n, 0.0);
  const std::function<void(std::size_t)> body = [&](std::size_t i) {
    if (!busy) return;
    double x = sink[i] + 1.0;
    for (int k = 0; k < 300; ++k) x = x * 0.999999 + 1e-9;  // ~1 µs chain
    sink[i] = x;
  };
  for (auto _ : state) pool.parallel_for(n, body);
  benchmark::DoNotOptimize(sink.data());
  state.SetItemsProcessed(state.iterations() * static_cast<long long>(n));
}
BENCHMARK(BM_PoolParallelFor)
    ->Args({4, 0})
    ->Args({1024, 1})
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
