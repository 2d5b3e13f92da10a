// fleet_monitoring — the paper's §6 vision end to end: a fleet of cheap MAF
// insertion sensors "widely diffused all over the water distribution
// channels", co-simulated against a small looped district over a compressed
// diurnal day, stepped in parallel on a thread pool. Halfway through,
// a pipe springs a pressure-driven leak; the fleet's per-junction mass
// balance localizes it.
#include <cstdio>
#include <vector>

#include "core/monitor.hpp"
#include "core/rig.hpp"
#include "fleet/fleet.hpp"
#include "fleet/supervisor.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/trace.hpp"
#include "util/thread_pool.hpp"

int main() {
  using namespace aqua;
  using util::Seconds;

  // Capture the whole run as a trace: epochs, hydro solves, per-sensor frame
  // batches and the pool's tasks, one track per thread.
  obs::TraceRecorder::set_enabled(true);
  obs::TraceRecorder::set_thread_name("main");

  // --- the district: one reservoir, 7 junctions, 10 pipes, looped ----------
  hydro::WaterNetwork net;
  const auto res = net.add_reservoir(40.0);
  const auto n1 = net.add_junction(2.0, 0.0015);
  const auto n2 = net.add_junction(2.0, 0.0025);
  const auto n3 = net.add_junction(1.5, 0.0025);
  const auto n4 = net.add_junction(1.0, 0.0020);
  const auto n5 = net.add_junction(1.0, 0.0020);
  const auto n6 = net.add_junction(0.5, 0.0015);
  const auto n7 = net.add_junction(0.5, 0.0015);
  using util::metres;
  using util::millimetres;
  net.add_pipe(res, n1, metres(300.0), millimetres(200.0));
  net.add_pipe(n1, n2, metres(400.0), millimetres(150.0));
  net.add_pipe(n1, n3, metres(400.0), millimetres(150.0));
  net.add_pipe(n2, n4, metres(300.0), millimetres(100.0));
  net.add_pipe(n3, n5, metres(300.0), millimetres(100.0));
  net.add_pipe(n2, n3, metres(300.0), millimetres(100.0));
  net.add_pipe(n4, n6, metres(250.0), millimetres(80.0));
  net.add_pipe(n5, n7, metres(250.0), millimetres(80.0));
  net.add_pipe(n4, n5, metres(250.0), millimetres(80.0));
  net.add_pipe(n6, n7, metres(250.0), millimetres(80.0));

  // One sensor per pipe: full observability, every junction balanced.
  std::vector<fleet::SensorPlacement> placements;
  std::vector<hydro::WaterNetwork::PipeId> pipes;
  for (hydro::WaterNetwork::PipeId p = 0; p < net.pipe_count(); ++p) {
    placements.push_back(fleet::SensorPlacement{p, 0.0});
    pipes.push_back(p);
  }

  fleet::FleetConfig cfg;
  cfg.sensor.isif = cta::coarse_isif_config();  // monitoring, not metrology
  cfg.sensor.cta.output_cutoff = util::hertz(2.0);
  cfg.root_seed = 2008;  // DATE'08 — any seed reproduces bit-identically
  cfg.epoch = Seconds{0.25};
  const Seconds day{4.0};  // 24 h compressed to 4 s of simulation
  cfg.demand_factor = fleet::diurnal_demand_pattern(day);

  fleet::FleetEngine engine(net, placements, cfg);
  util::ThreadPool pool;  // hardware concurrency
  std::printf("fleet: %zu sensors on %zu pipes, pool of %zu threads\n",
              engine.size(), net.pipe_count(), pool.thread_count());

  // --- commission + per-die King's-law calibration (parallel) --------------
  engine.commission(Seconds{0.5}, &pool);
  const std::vector<double> speeds{0.05, 0.2, 0.5, 0.9};
  engine.calibrate(speeds, Seconds{0.4}, &pool);
  std::printf("calibrated %zu dies (each absorbs its own tolerances)\n\n",
              engine.size());

  // Leak localizer signatures must be learned on the pre-leak network; the
  // small probe emitter keeps the probe leak well under the district demand.
  cta::LeakLocalizer localizer(net, pipes, util::metres_per_second(0.02));
  localizer.set_probe_emitter(2e-4);
  localizer.calibrate();

  // The fleet supervisor watches every sensor once per epoch from here on.
  fleet::FleetSupervisor supervisor(engine, fleet::SupervisorConfig{});
  const auto run_supervised = [&](Seconds duration) {
    const long long epochs =
        static_cast<long long>(duration.value() / cfg.epoch.value() + 0.5);
    for (long long e = 0; e < epochs; ++e) supervisor.step(&pool);
  };

  // --- a healthy compressed day --------------------------------------------
  run_supervised(day);
  const fleet::FleetReport healthy = engine.report();
  std::printf("healthy day: demand %.1f l/s, worst junction residual "
              "%+.2f l/s\n",
              healthy.total_demand_m3s * 1e3,
              healthy.ranked_suspects().empty()
                  ? 0.0
                  : healthy.ranked_suspects().front().residual_m3s * 1e3);
  std::printf("%-8s %-6s %12s %12s %10s\n", "sensor", "pipe", "est [m/s]",
              "true [m/s]", "rms [m/s]");
  for (const fleet::SensorSummary& s : healthy.sensors)
    std::printf("%-8zu %-6zu %12.3f %12.3f %10.3f\n", s.index, s.pipe,
                s.final_estimate_mps, s.final_true_mps, s.rms_error_mps);

  // --- spring a leak at junction n4, keep monitoring ------------------------
  std::printf("\n*** leak springs at junction %zu ***\n", n4);
  net.set_leak(n4, 1e-3);  // q = C*sqrt(pressure head)
  run_supervised(Seconds{1.5});

  const fleet::FleetReport leaking = engine.report();
  std::printf("escaping flow (model truth): %.2f l/s\n",
              leaking.total_leak_m3s * 1e3);
  std::printf("ranked suspects (mass-balance residual = unexplained "
              "inflow):\n");
  const auto suspects = leaking.ranked_suspects();
  for (std::size_t i = 0; i < suspects.size() && i < 3; ++i)
    std::printf("  #%zu junction %zu: %+.2f l/s%s\n", i + 1,
                suspects[i].node, suspects[i].residual_m3s * 1e3,
                suspects[i].node == n4 ? "  <-- the leak" : "");

  const bool localized = !suspects.empty() && suspects.front().node == n4;
  std::printf("\n%s\n", localized
                            ? "leak localized: isolate the junction and "
                              "dispatch the crew (paper vision achieved)"
                            : "leak NOT localized");

  // --- a sensor dies in the field: degraded-mode localization ---------------
  // Water hammer ruptures the membrane of the sensor on the n6–n7 balancing
  // pipe. The supervisor quarantines it on the next poll, and the masked
  // estimate API marks its entry invalid and pins it to zero, so the
  // localizer never reads the dead sensor's last pre-fault sample as live.
  const std::size_t casualty = 9;  // sensor on the n6–n7 pipe
  std::printf("\n*** sensor %zu membrane ruptures (water hammer) ***\n",
              casualty);
  engine.node(casualty).anemometer().die().damage_membrane();
  run_supervised(Seconds{1.0});

  const fleet::MaskedEstimates masked = engine.latest_estimates_masked();
  std::printf("supervisor: sensor %zu is %s; %zu of %zu sensors in service\n",
              casualty,
              fleet::node_health_state_name(supervisor.state(casualty)),
              masked.valid_count(), engine.size());
  const bool casualty_masked =
      masked.valid[casualty] == 0 && masked.values[casualty] == 0.0;

  // The leak localizer's masked overloads keep working on the surviving set.
  const bool still_detected =
      localizer.leak_detected(masked.values, masked.valid);
  std::size_t masked_rank = 0;
  const auto hypotheses = localizer.locate(masked.values, masked.valid);
  for (std::size_t i = 0; i < hypotheses.size(); ++i)
    if (hypotheses[i].node == n4) masked_rank = i + 1;
  std::printf("degraded mode: leak %s, true junction ranked #%zu of %zu\n",
              still_detected ? "still detected" : "LOST", masked_rank,
              hypotheses.size());
  const bool degraded_ok = casualty_masked && still_detected &&
                           masked_rank >= 1 && masked_rank <= 3;
  std::printf("%s\n", degraded_ok
                          ? "graceful degradation: one casualty, mission "
                            "intact"
                          : "degraded-mode localization FAILED");

  // --- export the timeline ---------------------------------------------------
  const std::string trace_path = "fleet_monitoring_trace.json";
  obs::write_chrome_trace(trace_path,
                          obs::TraceRecorder::instance().snapshot());
  std::printf("\ntrace: wrote %s — open it at https://ui.perfetto.dev to see "
              "the day unfold per thread\n",
              trace_path.c_str());
  return localized && degraded_ok ? 0 : 1;
}
