// Microbenchmarks (google-benchmark) for the hot kernels of the simulation
// and conditioning stack: justify that full-campaign simulations (hundreds of
// simulated seconds at the modulator clock) complete in minutes.
#include <benchmark/benchmark.h>

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
#include "isif/channel.hpp"
#include "maf/die.hpp"

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

void BM_ThermalNetworkStep(benchmark::State& state) {
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
BENCHMARK(BM_ThermalNetworkStep);

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
}
BENCHMARK(BM_MafDieStep);

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

}  // namespace

BENCHMARK_MAIN();
