// aquabench — the aquaCTA end-to-end benchmark. One process runs one
// workload: a fleet on the replicated 32-pipe district, built, commissioned,
// then driven as a closed loop of FleetEngine::step_epoch calls inside a
// TeamSession, timed from epoch 0. One episode is set-up plus that horizon;
// episodes repeat until the --seconds budget is spent, and every metric is
// the median over episodes.
//
//   aquabench --workload night-1k [--seed 42] [--seconds 40] [--trace]
//             [--smoke] --out result.json
//
// The benchmark measures each layer from outside. It times its own calls
// into the library's public API, and with --trace it also reads the spans
// and counters the library already emits (obs::TraceRecorder / Registry
// snapshots). A traced run alternates untraced and traced episodes: per-layer
// numbers come only from the traced ones, end-to-end numbers only from the
// untraced ones, and their wall-time ratio is the tracing overhead.
//
// Correctness is checked by physics and self-consistency, never against a
// committed checksum: finite estimates, converged solves, network mass
// balance, identical trace checksums across the episodes of one run, and a
// restored campaign checkpoint that reproduces the checksum recorded when it
// was written. Any failure is reported in the result and exits nonzero.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/rig.hpp"
#include "fault/campaign.hpp"
#include "fleet/fleet.hpp"
#include "fleet/supervisor.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "simd/lanes.hpp"
#include "state/checkpoint.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace aqua;
using util::Seconds;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return std::nan("");
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                   v.end());
  const double upper = v[mid];
  if (v.size() % 2 == 1) return upper;
  const double lower = *std::max_element(
      v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid));
  return 0.5 * (lower + upper);
}

// --- workloads ---------------------------------------------------------------

struct Workload {
  std::string_view name;
  std::size_t districts;
  int probes_per_pipe;       // > 0: that many probes on every pipe
  std::size_t inlet_stride;  // > 0: one probe on every stride-th district inlet
  double demand;             // constant demand factor, unless diurnal_day_s
  double diurnal_day_s;      // > 0: diurnal_demand_pattern over this span
  double epoch_s;
  long long epochs;
  std::size_t fault_events;  // > 0: a supervised, checkpointed fault campaign
  std::uint64_t default_seed;
};

// Why each workload exists is recorded in README.md. In short: night-1k
// loads the scheduler and the sensor chain over a warm solve; diurnal-dma
// puts the dense hydraulic solve under changing demand with few sensors;
// campaign-64 adds supervision, fault injection and checkpoints between
// epochs. Sizes keep one episode within a few seconds, so a run holds several
// episodes. There is no serial workload: a lone busy thread stays on one
// vCPU, and on a shared host that vCPU's speed alone set its timings.
constexpr Workload kWorkloads[] = {
    {"night-1k", 8, 4, 0, 0.3, 0.0, 0.02, 24, 0, 42},
    {"diurnal-dma", 32, 0, 4, 1.0, 8.0, 0.25, 20, 0, 42},
    {"campaign-64", 2, 1, 0, 1.0, 0.0, 0.25, 80, 12, 2008},
};

// Every workload runs on a pool of this many workers, no more than the
// reference host's vCPUs; the caller's thread waits at the team barrier.
constexpr unsigned kPoolThreads = 4;
constexpr std::size_t kPipesPerDistrict = 32;
constexpr Seconds kCommissionSettle{0.03};  // zero-flow settle per sensor
constexpr long long kCheckpointEvery = 8;
constexpr std::size_t kCheckpointRetain = 2;
// Set-up samples an untraced run aims for, and the share of its budget that
// set-up-only passes may take.
constexpr std::size_t kSetupSamples = 5;
constexpr double kSetupShare = 0.2;

struct District {
  hydro::WaterNetwork net;
  std::vector<fleet::SensorPlacement> placements;
  std::vector<hydro::WaterNetwork::PipeId> inlets;
};

// Reservoir feeding four radial chains of eight tapered pipes (32 pipes),
// replicated `replicas` times: the district of bench/bench_fleet.cpp. Each
// replica is hydraulically independent, so every replica converges like the
// original, while the dense nodal solve still grows with the whole network.
District make_district(const Workload& w, std::size_t replicas) {
  District d;
  for (std::size_t rep = 0; rep < replicas; ++rep) {
    const auto res = d.net.add_reservoir(45.0);
    const auto hub = d.net.add_junction(2.0, 0.002);
    const auto first_pipe = d.net.pipe_count();
    d.inlets.push_back(d.net.add_pipe(res, hub, util::metres(200.0),
                                      util::millimetres(250.0)));
    for (int chain = 0; chain < 4; ++chain) {
      auto prev = hub;
      for (int k = 0; k < 8; ++k) {
        if (d.net.pipe_count() - first_pipe >= kPipesPerDistrict) break;
        // Diameters shrink with the remaining demand so the flow stays
        // turbulent at the 0.3x night factor (the solver stalls in the
        // laminar/transition regime).
        const auto next = d.net.add_junction(1.5 - 0.1 * k, 0.002);
        d.net.add_pipe(prev, next, util::metres(250.0),
                       util::millimetres(150.0 - 14.0 * k));
        prev = next;
      }
    }
  }
  for (hydro::WaterNetwork::PipeId p = 0; p < d.net.pipe_count(); ++p)
    for (int k = 0; k < w.probes_per_pipe; ++k)
      d.placements.push_back(fleet::SensorPlacement{p, 0.2 * k});
  for (std::size_t i = 0; w.inlet_stride > 0 && i < d.inlets.size();
       i += w.inlet_stride)
    d.placements.push_back(fleet::SensorPlacement{d.inlets[i], 0.0});
  return d;
}

sim::Schedule demand_of(const Workload& w) {
  if (w.diurnal_day_s > 0.0)
    return fleet::diurnal_demand_pattern(Seconds{w.diurnal_day_s});
  return sim::Schedule{w.demand};
}

fleet::FleetConfig make_config(const Workload& w, std::uint64_t seed) {
  fleet::FleetConfig cfg;
  cfg.sensor.isif = cta::coarse_isif_config();
  cfg.sensor.cta.output_cutoff = util::hertz(2.0);
  cfg.root_seed = seed;
  cfg.epoch = Seconds{w.epoch_s};
  cfg.demand_factor = demand_of(w);
  return cfg;
}

fleet::SupervisorConfig make_supervisor_config() {
  fleet::SupervisorConfig cfg;
  // A dead channel must be caught well inside the shortest event (4 s).
  cfg.health.stuck_count = 6;
  return cfg;
}

// The fault schedule is part of the workload, like the network: its seed is
// fixed, so which faults strike when (and with them the supervisor's
// re-commission work) does not move with --seed, which only moves the
// sensors' noise and part tolerances.
constexpr std::uint64_t kFaultScheduleSeed = 2008;

fault::FaultCampaign make_campaign(const Workload& w, std::size_t sensors) {
  return fault::FaultCampaign::random(kFaultScheduleSeed, w.fault_events,
                                      sensors, Seconds{0.5}, Seconds{6.0},
                                      Seconds{4.0}, Seconds{8.0});
}

// --- trace reading -----------------------------------------------------------

struct SpanTotals {
  double total_s = 0.0;
  long long count = 0;
  std::vector<double> durations_s;
};

// Span totals by name, matched begin/end per track. Fed with one snapshot per
// epoch: the recorder is drained between epochs (a quiescent point), so no
// ring ever wraps and every span of interest closes inside its snapshot.
struct TraceTally {
  std::map<std::string, SpanTotals, std::less<>> spans;
  std::map<std::uint32_t, double> team_busy_s;  // team.epoch per worker track
  std::uint64_t dropped = 0;

  void add(const obs::TraceSnapshot& snap) {
    dropped += snap.dropped_total;
    for (const obs::TraceTrack& track : snap.tracks) {
      std::vector<const obs::TraceEvent*> open;
      for (const obs::TraceEvent& ev : track.events) {
        if (ev.kind == obs::TraceEventKind::kSpanBegin) {
          open.push_back(&ev);
        } else if (ev.kind == obs::TraceEventKind::kSpanEnd) {
          // An end whose begin was drained with an earlier snapshot (a span
          // open across the drain, such as a parked pool task) is skipped.
          if (open.empty() || std::string_view{open.back()->name} != ev.name)
            continue;
          const double d =
              static_cast<double>(ev.wall_ns - open.back()->wall_ns) * 1e-9;
          open.pop_back();
          SpanTotals& s = spans[ev.name];
          s.total_s += d;
          ++s.count;
          s.durations_s.push_back(d);
          if (std::string_view{ev.name} == "team.epoch")
            team_busy_s[track.tid] += d;
        }
      }
    }
  }

  [[nodiscard]] const SpanTotals* find(std::string_view name) const {
    const auto it = spans.find(name);
    return it == spans.end() || it->second.count == 0 ? nullptr : &it->second;
  }
};

// Merges per-epoch snapshots into one export for the Perfetto file.
void append_tracks(obs::TraceSnapshot& into, const obs::TraceSnapshot& snap) {
  into.dropped_total += snap.dropped_total;
  for (const obs::TraceTrack& track : snap.tracks) {
    if (track.events.empty()) continue;
    auto it = std::find_if(into.tracks.begin(), into.tracks.end(),
                           [&](const obs::TraceTrack& t) {
                             return t.tid == track.tid;
                           });
    if (it == into.tracks.end()) {
      into.tracks.push_back(track);
    } else {
      it->events.insert(it->events.end(), track.events.begin(),
                        track.events.end());
      it->dropped += track.dropped;
    }
  }
}

std::uint64_t counter_value(const obs::Snapshot& snap, std::string_view name) {
  for (const obs::CounterSnapshot& c : snap.counters)
    if (c.name == name) return c.value;
  return 0;
}

// --- one episode -------------------------------------------------------------

using Layers = std::map<std::string, std::optional<double>, std::less<>>;

struct Episode {
  bool traced = false;
  double setup_s = 0.0;
  double construct_s = 0.0;
  double commission_s = 0.0;
  double wall_s = 0.0;
  std::vector<double> epoch_s;  // one closed-loop iteration each
  std::size_t sensors = 0;
  std::uint64_t checksum = 0;
  double abs_error_sum = 0.0;
  long long error_samples = 0;
  long long attempted = 0;
  long long failed = 0;
  std::vector<std::string> errors;
  // campaign workloads only
  std::optional<fault::CampaignSummary> summary;
  // traced episodes only
  Layers layers;
};

struct RunOptions {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  bool smoke = false;
  std::string scratch_dir;  // checkpoint directory for campaign episodes
  obs::TraceSnapshot* export_trace = nullptr;  // first traced episode's events
};

struct Shape {
  std::size_t districts;
  long long epochs;
};

Shape shape_of(const RunOptions& opt) {
  const Workload& w = *opt.workload;
  return opt.smoke ? Shape{2, 2} : Shape{w.districts, w.epochs};
}

// The inlet flows must add up to the network's total outflow: every replica
// is a tree fed by exactly one reservoir pipe.
bool mass_balanced(const District& d) {
  double inflow = 0.0;
  for (const auto p : d.inlets) inflow += d.net.pipe_flow(p);
  const double out = d.net.total_outflow();
  return std::isfinite(inflow) && std::abs(inflow - out) <= 1e-9 + 1e-6 * out;
}

// Everything an episode builds before its first epoch, in dependency order:
// the engine refers to the network and uses the pool; the supervisor and the
// runner refer to the engine. Heap-allocated so those references stay put.
struct FleetSetup {
  District district;
  std::unique_ptr<util::ThreadPool> pool;
  std::unique_ptr<fleet::FleetEngine> engine;
  std::unique_ptr<fleet::FleetSupervisor> supervisor;
  std::unique_ptr<fault::CampaignRunner> runner;
  double construct_s = 0.0;
  double commission_s = 0.0;
  double setup_s = 0.0;
};

Seconds horizon_of(const Workload& w, const Shape& shape) {
  return Seconds{w.epoch_s * static_cast<double>(shape.epochs)};
}

// Set-up as a user pays it: network and engine construction (which includes
// the cold solve), commissioning, and for a campaign the supervisor and
// runner. A restore target skips commissioning: the image carries it.
std::unique_ptr<FleetSetup> set_up(const Workload& w, const Shape& shape,
                              std::uint64_t seed, bool commission) {
  const auto t_setup = Clock::now();
  auto f = std::make_unique<FleetSetup>();
  f->district = make_district(w, shape.districts);
  f->pool = std::make_unique<util::ThreadPool>(kPoolThreads);
  const auto t_construct = Clock::now();
  f->engine = std::make_unique<fleet::FleetEngine>(
      f->district.net, f->district.placements, make_config(w, seed));
  f->engine->set_shared_fit(cta::KingFit{0.9, 1.1, 0.5});
  f->construct_s = seconds_since(t_construct);
  if (commission) {
    const auto t_commission = Clock::now();
    f->engine->commission(kCommissionSettle, f->pool.get());
    f->commission_s = seconds_since(t_commission);
  }
  if (w.fault_events > 0) {
    f->supervisor = std::make_unique<fleet::FleetSupervisor>(
        *f->engine, make_supervisor_config());
    f->runner = std::make_unique<fault::CampaignRunner>(
        *f->engine, *f->supervisor, make_campaign(w, f->engine->size()),
        horizon_of(w, shape));
  }
  f->setup_s = seconds_since(t_setup);
  return f;
}

Episode run_episode(const RunOptions& opt, bool traced) {
  const Workload& w = *opt.workload;
  const Shape shape = shape_of(opt);
  Episode ep;
  ep.traced = traced;
  obs::TraceRecorder& recorder = obs::TraceRecorder::instance();

  const std::unique_ptr<FleetSetup> built = set_up(w, shape, opt.seed, true);
  fleet::FleetEngine& engine = *built->engine;
  util::ThreadPool* const pool = built->pool.get();
  fault::CampaignRunner* const runner = built->runner.get();
  ep.setup_s = built->setup_s;
  ep.construct_s = built->construct_s;
  ep.commission_s = built->commission_s;
  ep.sensors = engine.size();
  const Seconds horizon = horizon_of(w, shape);
  std::unique_ptr<state::CheckpointManager> manager;
  if (runner) {
    std::filesystem::remove_all(opt.scratch_dir);
    manager = std::make_unique<state::CheckpointManager>(
        opt.scratch_dir, "campaign", kCheckpointRetain);
  }

  // A copy of the freshly built network, solved cold: the hydro share of
  // set-up. Traced episodes only — it is not part of any user-visible run.
  std::optional<double> cold_solve_s;
  if (traced) {
    District probe = make_district(w, shape.districts);
    probe.net.scale_demands(demand_of(w).at(Seconds{0.0}));
    const auto t0 = Clock::now();
    if (probe.net.solve(engine.config().water_temperature))
      cold_solve_s = seconds_since(t0);
  }

  // --- the timed horizon -------------------------------------------------
  TraceTally tally;
  obs::Snapshot counters_before;
  if (traced) {
    counters_before = obs::Registry::instance().snapshot();
    recorder.clear();
    obs::TraceRecorder::set_enabled(true);
  }
  const long long ckpt_every = std::min(kCheckpointEvery, shape.epochs);
  std::map<long long, std::uint64_t> checksum_at;  // checkpoint epoch → trace
  double step_sum_s = 0.0, checkpoint_s = 0.0, write_s = 0.0;
  double bookkeeping_s = 0.0;  // the benchmark's own work inside the loop
  std::size_t image_bytes = 0;

  const auto t_horizon = Clock::now();
  {
    const fleet::FleetEngine::TeamSession session{engine, pool};
    for (long long e = 1; e <= shape.epochs; ++e) {
      const auto t_step = Clock::now();
      if (runner) runner->step(pool);
      else engine.step_epoch(pool);
      const double step_s = seconds_since(t_step);
      step_sum_s += step_s;
      double iteration_s = step_s;
      if (manager && e % ckpt_every == 0) {
        const auto t_ck = Clock::now();
        const std::vector<std::uint8_t> image = runner->checkpoint();
        const double ck = seconds_since(t_ck);
        const auto t_wr = Clock::now();
        manager->write(static_cast<std::uint64_t>(e), image);
        const double wr = seconds_since(t_wr);
        checkpoint_s += ck;
        write_s += wr;
        iteration_s += ck + wr;
        image_bytes = image.size();
        const auto t_book = Clock::now();
        checksum_at[e] = fault::fleet_trace_checksum(engine);
        bookkeeping_s += seconds_since(t_book);
      }
      ep.epoch_s.push_back(iteration_s);
      if (traced) {
        // Workers are parked at the team barrier: a quiescent point.
        const auto t_book = Clock::now();
        obs::TraceSnapshot snap = recorder.snapshot();
        recorder.clear();
        tally.add(snap);
        if (opt.export_trace != nullptr) append_tracks(*opt.export_trace, snap);
        bookkeeping_s += seconds_since(t_book);
      }
    }
  }
  ep.wall_s = seconds_since(t_horizon) - bookkeeping_s;
  const long long solve_failures = engine.solve_failures();
  obs::Snapshot counters_after;
  if (traced) {
    obs::TraceRecorder::set_enabled(false);
    counters_after = obs::Registry::instance().snapshot();
  }

  // --- correctness ---------------------------------------------------------
  ep.checksum = fault::fleet_trace_checksum(engine);
  std::vector<std::uint8_t> excluded(engine.size(), 0);
  if (runner) {
    ep.summary = runner->finish();
    // A sensor that had a fault injected may legitimately read garbage.
    for (const fault::FaultOutcome& o : ep.summary->outcomes)
      if (o.injected) excluded[o.event.sensor] = 1;
  }
  long long counted_sensors = 0;
  for (std::size_t i = 0; i < engine.size(); ++i) {
    if (excluded[i] != 0) continue;
    ++counted_sensors;
    for (const fleet::TraceSample& s : engine.node(i).trace()) {
      ++ep.attempted;
      if (!std::isfinite(s.estimate_mps) || !std::isfinite(s.true_mean_mps)) {
        ++ep.failed;
        continue;
      }
      ep.abs_error_sum += std::abs(s.estimate_mps - s.true_mean_mps);
      ++ep.error_samples;
    }
  }
  if (solve_failures > 0) {
    ep.failed += solve_failures * counted_sensors;
    ep.errors.push_back(std::to_string(solve_failures) +
                        " network solve(s) failed");
  }
  if (ep.failed > 0 && solve_failures == 0)
    ep.errors.push_back(std::to_string(ep.failed) + " non-finite estimate(s)");
  if (!mass_balanced(built->district))
    ep.errors.push_back("network mass balance violated");
  if (ep.attempted < counted_sensors * shape.epochs)
    ep.errors.push_back("fewer trace samples than sensor-epochs");

  std::optional<double> restore_s;
  if (manager) {
    // Restore the newest image into a fresh engine + supervisor + runner; it
    // must reproduce the trace checksum recorded when it was written.
    const auto t_load = Clock::now();
    const std::optional<state::LoadedCheckpoint> loaded =
        manager->load_newest_valid();
    const double load_s = seconds_since(t_load);
    if (!loaded) {
      ep.errors.push_back("no valid checkpoint to restore");
    } else {
      const std::unique_ptr<FleetSetup> fresh =
          set_up(w, shape, opt.seed, false);
      const auto t_restore = Clock::now();
      fresh->runner->restore(loaded->image);
      restore_s = load_s + seconds_since(t_restore);
      const auto want = checksum_at.find(static_cast<long long>(loaded->epoch));
      if (want == checksum_at.end() ||
          fault::fleet_trace_checksum(*fresh->engine) != want->second)
        ep.errors.push_back("restored checkpoint does not reproduce the trace "
                            "checksum of epoch " +
                            std::to_string(loaded->epoch));
    }
    manager.reset();
    std::filesystem::remove_all(opt.scratch_dir);
  }
  if (!ep.errors.empty() && ep.failed == 0) ep.failed = 1;

  if (!traced) return ep;

  // --- per-layer split of this traced episode -------------------------------
  Layers& L = ep.layers;
  const auto delta = [&](std::string_view name) {
    return static_cast<double>(counter_value(counters_after, name) -
                               counter_value(counters_before, name));
  };
  const SpanTotals* epoch_spans = tally.find("fleet.epoch");
  const SpanTotals* solve_spans = tally.find("fleet.solve");
  const SpanTotals* busy_spans = tally.find("team.epoch");
  const SpanTotals* recommission_spans = tally.find("fleet.recommission");
  const double workers = static_cast<double>(kPoolThreads);
  const double sim_s = static_cast<double>(ep.sensors) * horizon.value();

  L["setup.construct_s"] = ep.construct_s;
  L["setup.cold_solve_s"] = cold_solve_s;
  L["setup.commission_s"] = ep.commission_s;
  std::optional<double> solve, fanout, busy;
  if (solve_spans) {
    solve = solve_spans->total_s;
    L["hydro.solve_p50_s"] = median(solve_spans->durations_s);
  } else {
    L["hydro.solve_p50_s"] = std::nullopt;
  }
  L["hydro.solve_s"] = solve;
  L["hydro.solve_share"] =
      solve ? std::optional<double>{*solve / ep.wall_s} : std::nullopt;
  L["hydro.solve_failures"] = static_cast<double>(solve_failures);
  if (epoch_spans && solve) fanout = epoch_spans->total_s - *solve;
  if (busy_spans) busy = busy_spans->total_s;
  L["fleet.fanout_s"] = fanout;
  L["fleet.worker_busy_s"] = busy;
  if (fanout && busy) {
    L["fleet.worker_wait_s"] = workers * *fanout - *busy;
    L["fleet.worker_util"] = *busy / (workers * *fanout);
  } else {
    L["fleet.worker_wait_s"] = std::nullopt;
    L["fleet.worker_util"] = std::nullopt;
  }
  if (!tally.team_busy_s.empty()) {
    double max_busy = 0.0, sum_busy = 0.0;
    for (const auto& [tid, s] : tally.team_busy_s) {
      max_busy = std::max(max_busy, s);
      sum_busy += s;
    }
    L["fleet.busy_imbalance"] = max_busy / (sum_busy / workers);
  } else {
    L["fleet.busy_imbalance"] = std::nullopt;
  }
  L["fleet.epochs"] = delta("fleet.epochs");
  L["fleet.sensor_steps"] = delta("fleet.sensor_steps");
  L["util.thread_pool.tasks"] = delta("util.thread_pool.tasks");
  L["util.thread_pool.steals"] = delta("util.thread_pool.steals");
  L["sensor.cost_s_per_sensor_sim_s"] =
      busy ? std::optional<double>{*busy / sim_s} : std::nullopt;
  L["isif.channel.samples"] = delta("isif.channel.samples");
  L["campaign.serial_s"] =
      epoch_spans ? std::optional<double>{step_sum_s - epoch_spans->total_s}
                  : std::nullopt;
  L["supervisor.recommission_s"] =
      recommission_spans ? recommission_spans->total_s : 0.0;
  L["supervisor.recommissions"] =
      recommission_spans ? static_cast<double>(recommission_spans->count) : 0.0;
  L["state.checkpoint_s"] = checkpoint_s;
  L["state.write_s"] = write_s;
  L["state.image_bytes"] = static_cast<double>(image_bytes);
  L["state.restore_s"] = restore_s ? *restore_s : 0.0;
  L["trace.dropped_events"] = static_cast<double>(tally.dropped);
  L["trace.wall_s"] = ep.wall_s;
  return ep;
}

// --- reporting ---------------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  std::optional<double> value;
};

// Units of the per-layer metrics, in report order.
constexpr std::pair<std::string_view, std::string_view> kLayerUnits[] = {
    {"setup.construct_s", "s"},
    {"setup.cold_solve_s", "s"},
    {"setup.commission_s", "s"},
    {"hydro.solve_s", "s"},
    {"hydro.solve_p50_s", "s"},
    {"hydro.solve_share", "ratio"},
    {"hydro.solve_failures", "count"},
    {"fleet.fanout_s", "s"},
    {"fleet.worker_busy_s", "s"},
    {"fleet.worker_wait_s", "s"},
    {"fleet.worker_util", "ratio"},
    {"fleet.busy_imbalance", "ratio"},
    {"fleet.epochs", "count"},
    {"fleet.sensor_steps", "count"},
    {"util.thread_pool.tasks", "count"},
    {"util.thread_pool.steals", "count"},
    {"sensor.cost_s_per_sensor_sim_s", "s/sensor-s"},
    {"isif.channel.samples", "count"},
    {"campaign.serial_s", "s"},
    {"supervisor.recommission_s", "s"},
    {"supervisor.recommissions", "count"},
    {"state.checkpoint_s", "s"},
    {"state.write_s", "s"},
    {"state.image_bytes", "bytes"},
    {"state.restore_s", "s"},
    {"trace.dropped_events", "count"},
    {"trace.wall_s", "s"},
};

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::vector<Metric> end_to_end_metrics(const std::vector<Episode>& eps,
                                       std::vector<double> setup,
                                       const Workload& w) {
  std::vector<double> wall, rates, epochs;
  double err = 0.0, err_n = 0.0;
  long long attempted = 0, failed = 0;
  for (const Episode& ep : eps) {
    attempted += ep.attempted;
    failed += ep.failed;
    if (ep.traced) continue;
    setup.push_back(ep.setup_s);
    wall.push_back(ep.wall_s);
    rates.push_back(static_cast<double>(ep.sensors) * w.epoch_s *
                    static_cast<double>(ep.epoch_s.size()) / ep.wall_s);
    epochs.insert(epochs.end(), ep.epoch_s.begin(), ep.epoch_s.end());
    err += ep.abs_error_sum;
    err_n += static_cast<double>(ep.error_samples);
  }
  const auto med = [](const std::vector<double>& v) {
    return v.empty() ? std::nullopt : std::optional<double>{median(v)};
  };
  std::vector<Metric> m;
  m.push_back({"setup_s", "s", med(setup)});
  m.push_back({"wall_s", "s", med(wall)});
  m.push_back({"sensor_sim_s_per_s", "sensor-s/s", med(rates)});
  m.push_back({"epoch_p50_s", "s", med(epochs)});
  m.push_back({"epoch_count", "count", static_cast<double>(epochs.size())});
  m.push_back({"peak_rss_mb", "MB", peak_rss_mb()});
  m.push_back({"estimate_mae_mps", "m/s",
               err_n > 0.0 ? std::optional<double>{err / err_n}
                           : std::nullopt});
  m.push_back({"failed_ratio", "ratio",
               attempted > 0 ? static_cast<double>(failed) /
                                   static_cast<double>(attempted)
                             : 1.0});
  if (w.fault_events > 0) {
    // Deterministic for a seed: every episode of the run agrees, so the first
    // summary stands for all of them.
    const fault::CampaignSummary& s = *eps.front().summary;
    std::vector<double> detection;
    for (const fault::FaultOutcome& o : s.outcomes)
      if (o.injected && o.detection_epochs >= 0)
        detection.push_back(static_cast<double>(o.detection_epochs));
    std::optional<double> detected;
    if (s.hard_injected > 0)
      detected = static_cast<double>(s.hard_detected) /
                 static_cast<double>(s.hard_injected);
    m.push_back({"hard_fault_detection", "ratio", detected});
    m.push_back({"quarantine_flaps", "count",
                 static_cast<double>(s.quarantine_flaps)});
    m.push_back({"detection_p50_epochs", "epochs",
                 detection.empty() ? std::nullopt
                                   : std::optional<double>{median(detection)}});
  }
  return m;
}

std::vector<Metric> layer_metrics(const std::vector<Episode>& eps,
                                  std::vector<std::string>& warnings) {
  std::vector<Metric> m;
  std::vector<double> traced_wall, untraced_wall;
  for (const Episode& ep : eps)
    (ep.traced ? traced_wall : untraced_wall).push_back(ep.wall_s);
  for (const auto& [name, unit] : kLayerUnits) {
    std::vector<double> v;
    bool missing = false;
    for (const Episode& ep : eps) {
      if (!ep.traced) continue;
      const auto it = ep.layers.find(name);
      if (it == ep.layers.end() || !it->second) {
        missing = true;
        break;
      }
      v.push_back(*it->second);
    }
    std::optional<double> value;
    if (missing || v.empty()) {
      warnings.push_back(std::string(name) +
                         ": a span it depends on is missing; reported as null");
    } else {
      value = name == "trace.dropped_events"
                  ? *std::max_element(v.begin(), v.end())
                  : median(std::move(v));
    }
    m.push_back({std::string(name), std::string(unit), value});
  }
  m.push_back({"trace.overhead", "ratio",
               traced_wall.empty() || untraced_wall.empty()
                   ? std::nullopt
                   : std::optional<double>{median(traced_wall) /
                                           median(untraced_wall)}});
  return m;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string join_doubles(const std::vector<double>& v) {
  std::string out;
  for (std::size_t i = 0; i < v.size(); ++i)
    out += (i ? ", " : "") + obs::json_double(v[i]);
  return out;
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    out += (i == 0 ? "\n    \"" : ",\n    \"") +
           obs::escape_json_string(m.name) + "\": {\"value\": " +
           (m.value ? obs::json_double(*m.value) : "null") + ", \"unit\": \"" +
           obs::escape_json_string(m.unit) + "\"}";
  }
  return out + "\n  }";
}

void print_metrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    if (m.value)
      std::printf("  %-32s %14.6g %s\n", m.name.c_str(), *m.value,
                  m.unit.c_str());
    else
      std::printf("  %-32s %14s %s\n", m.name.c_str(), "null", m.unit.c_str());
  }
}

struct Args {
  std::string workload;
  std::optional<std::uint64_t> seed;
  double seconds = 40.0;
  bool trace = false;
  bool smoke = false;
  std::string out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "aquabench: %s\nusage: aquabench --workload NAME [--seed N] "
               "[--seconds S] [--trace] [--smoke] --out FILE\nworkloads:",
               why);
  for (const Workload& w : kWorkloads)
    std::fprintf(stderr, " %.*s", static_cast<int>(w.name.size()),
                 w.name.data());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value");
      return argv[++i];
    };
    try {
      if (flag == "--workload") a.workload = value();
      else if (flag == "--seed") a.seed = std::stoull(value());
      else if (flag == "--seconds") a.seconds = std::stod(value());
      else if (flag == "--out") a.out = value();
      else if (flag == "--trace") a.trace = true;
      else if (flag == "--smoke") a.smoke = true;
      else usage("unknown argument");
    } catch (const std::logic_error&) {  // std::sto* on a malformed number
      usage("malformed number");
    }
  }
  if (a.out.empty()) usage("--out is required");
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads)
    if (w.name == args.workload) workload = &w;
  if (workload == nullptr) usage("unknown workload");

  RunOptions opt;
  opt.workload = workload;
  opt.seed = args.seed.value_or(workload->default_seed);
  opt.smoke = args.smoke;
  opt.scratch_dir = args.out + ".ckpt";
  obs::TraceSnapshot export_trace;

  std::vector<Episode> episodes;
  std::vector<double> setup_only_s;
  std::vector<std::string> errors;
  const auto t_run = Clock::now();
  try {
    // Set-up is short next to a horizon, so an untraced run first times a
    // few set-up-only passes: setup_s is then a median of several samples.
    double last_setup_s = 0.0;
    while (!args.trace && setup_only_s.size() + 1 < kSetupSamples &&
           seconds_since(t_run) + last_setup_s < kSetupShare * args.seconds) {
      const auto t0 = Clock::now();
      setup_only_s.push_back(
          set_up(*workload, shape_of(opt), opt.seed, true)->setup_s);
      last_setup_s = seconds_since(t0);
    }
    // Episodes until the budget is spent; a traced run alternates untraced
    // and traced episodes and needs at least one of each.
    const std::size_t min_episodes = args.trace ? 2 : 1;
    double episodes_s = 0.0;
    for (;;) {
      const bool traced = args.trace && episodes.size() % 2 == 1;
      opt.export_trace =
          traced && export_trace.tracks.empty() ? &export_trace : nullptr;
      const auto t0 = Clock::now();
      episodes.push_back(run_episode(opt, traced));
      episodes_s += seconds_since(t0);
      const Episode& ep = episodes.back();
      for (const std::string& e : ep.errors) errors.push_back(e);
      if (ep.checksum != episodes.front().checksum)
        errors.push_back("episodes of one run disagree on the trace checksum");
      if (!errors.empty()) break;
      const double per_episode =
          episodes_s / static_cast<double>(episodes.size());
      if (episodes.size() >= min_episodes &&
          seconds_since(t_run) + per_episode > args.seconds)
        break;
    }
  } catch (const std::exception& e) {
    errors.push_back(std::string("exception: ") + e.what());
  }
  obs::TraceRecorder::set_enabled(false);

  std::vector<std::string> warnings;
  std::vector<Metric> e2e, layers;
  long long attempted = 0, failed = 0;
  for (const Episode& ep : episodes) {
    attempted += ep.attempted;
    failed += ep.failed;
  }
  if (!episodes.empty()) {
    e2e = end_to_end_metrics(episodes, setup_only_s, *workload);
    if (args.trace) layers = layer_metrics(episodes, warnings);
  }
  if (episodes.empty() && failed == 0) failed = 1;
  const bool correct = errors.empty() && failed == 0;

  std::string trace_path;
  if (args.trace && !export_trace.tracks.empty()) {
    trace_path = args.out;
    const auto dot = trace_path.rfind(".json");
    if (dot != std::string::npos) trace_path.resize(dot);
    trace_path += ".trace.json";
    obs::write_chrome_trace(trace_path, export_trace);
  }

  const auto flag = [](bool b) { return std::string(b ? "true" : "false"); };
  const auto strings = [](const std::vector<std::string>& v) {
    std::string out;
    for (std::size_t i = 0; i < v.size(); ++i)
      out += (i ? ", \"" : "\"") + obs::escape_json_string(v[i]) + "\"";
    return out;
  };
  const Episode* first = episodes.empty() ? nullptr : &episodes.front();
  std::string json = "{\n  \"workload\": \"" +
                     obs::escape_json_string(workload->name) + "\",\n";
  json += "  \"seed\": " + std::to_string(opt.seed) + ",\n";
  json += "  \"smoke\": " + flag(args.smoke) + ",\n";
  json += "  \"traced\": " + flag(args.trace) + ",\n";
  json += "  \"setup_only_s\": [" + join_doubles(setup_only_s) + "],\n";
  json += "  \"episodes\": [";
  for (std::size_t i = 0; i < episodes.size(); ++i)
    json += std::string(i ? ", " : "") +
            "{\"traced\": " + flag(episodes[i].traced) +
            ", \"setup_s\": " + obs::json_double(episodes[i].setup_s) +
            ", \"wall_s\": " + obs::json_double(episodes[i].wall_s) +
            ", \"epoch_s\": [" + join_doubles(episodes[i].epoch_s) + "]}";
  json += "],\n";
  json += "  \"sensors\": " + std::to_string(first ? first->sensors : 0) +
          ",\n";
  json += "  \"checksum\": \"" + hex64(first ? first->checksum : 0) + "\",\n";
  json += "  \"correct\": " + flag(correct) + ",\n";
  json += "  \"attempted\": " + std::to_string(attempted) + ",\n";
  json += "  \"failed\": " + std::to_string(failed) + ",\n";
  json += "  \"errors\": [" + strings(errors) + "],\n";
  json += "  \"warnings\": [" + strings(warnings) + "],\n";
  json += "  \"host\": {\"lane_width\": " +
          std::to_string(simd::active_lane_width()) +
          ", \"hardware_threads\": " +
          std::to_string(std::thread::hardware_concurrency()) +
          ", \"compiler\": \"" + obs::escape_json_string(__VERSION__) +
          "\", \"build_type\": \"" + AQUABENCH_BUILD_TYPE + "\"},\n";
  json += "  \"trace_file\": \"" + obs::escape_json_string(trace_path) +
          "\",\n";
  json += "  \"end_to_end\": " + metrics_json(e2e) + ",\n";
  json += "  \"per_layer\": " + metrics_json(layers) + "\n}";
  obs::write_file(args.out, json);

  std::printf("aquabench %s: seed %llu, %zu episode(s), %s\n",
              std::string(workload->name).c_str(),
              static_cast<unsigned long long>(opt.seed), episodes.size(),
              correct ? "correct" : "FAILED");
  print_metrics("end to end (untraced episodes):", e2e);
  if (args.trace) print_metrics("per layer (traced episodes):", layers);
  for (const std::string& w : warnings) std::printf("warning: %s\n", w.c_str());
  for (const std::string& e : errors) std::printf("error: %s\n", e.c_str());
  return correct ? 0 : 1;
}
