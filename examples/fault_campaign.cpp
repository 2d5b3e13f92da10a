// fault_campaign — the robustness layer end to end: a seeded fault-injection
// campaign over a supervised 10-sensor fleet. Faults are injected at the
// physical layers (die surface, membrane, package, ADC word, DAC rail,
// firmware); the FleetSupervisor detects them through each sensor's own
// diagnostics, quarantines the liars, re-commissions under capped exponential
// backoff, and the leak localizer keeps working on the surviving subset.
//
// This binary is the CI gate for the fault/supervision stack. It runs the
// identical campaign serially and on an 8-thread pool and enforces:
//   * every injected hard fault is detected (quarantined or contained);
//   * zero quarantine flaps (no quarantine on any fault-free sensor);
//   * the two CampaignSummaries are bit-identical, trace checksum included;
//   * the masked estimates feed the leak localizer NaN-free and the leak is
//     still localized with part of the fleet out of service.
// Exit status is nonzero on any violation. The serial summary is written as
// JSON to argv[1] (or $AQUA_CAMPAIGN_JSON, default
// fault_campaign_summary.json) for the CI artifact upload.
//
// Crash-recovery mode (DESIGN.md §14): with any of the flags below the binary
// runs the campaign through a CampaignRunner with durable checkpoints instead
// of the full gate battery, so CI can kill it mid-campaign and prove the
// resumed summary is byte-identical to an uninterrupted run's:
//   --checkpoint-dir DIR    where checkpoints go (required for the others)
//   --checkpoint-every N    write a checkpoint every N epochs
//   --kill-at-epoch K       exit(0) after epoch K — a simulated crash; only
//                           checkpoints the cadence already wrote survive
//   --resume DIR            restore the newest valid checkpoint from DIR
//                           (corrupt files are skipped) and run to completion
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/monitor.hpp"
#include "core/rig.hpp"
#include "fault/campaign.hpp"
#include "fleet/fleet.hpp"
#include "fleet/supervisor.hpp"
#include "state/checkpoint.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace aqua;
using util::Seconds;

constexpr std::uint64_t kSeed = 2008;
constexpr double kEpochS = 0.25;
const Seconds kCampaignLength{20.0};

struct District {
  hydro::WaterNetwork net;
  std::vector<fleet::SensorPlacement> placements;
  std::vector<hydro::WaterNetwork::PipeId> pipes;
  hydro::WaterNetwork::NodeId leak_node = 0;
};

// Same looped 10-pipe district as examples/fleet_monitoring — one sensor per
// pipe, so every junction is mass-balanced when the whole fleet is healthy.
District make_district() {
  District d;
  const auto res = d.net.add_reservoir(40.0);
  const auto n1 = d.net.add_junction(2.0, 0.0015);
  const auto n2 = d.net.add_junction(2.0, 0.0025);
  const auto n3 = d.net.add_junction(1.5, 0.0025);
  const auto n4 = d.net.add_junction(1.0, 0.0020);
  const auto n5 = d.net.add_junction(1.0, 0.0020);
  const auto n6 = d.net.add_junction(0.5, 0.0015);
  const auto n7 = d.net.add_junction(0.5, 0.0015);
  using util::metres;
  using util::millimetres;
  d.net.add_pipe(res, n1, metres(300.0), millimetres(200.0));
  d.net.add_pipe(n1, n2, metres(400.0), millimetres(150.0));
  d.net.add_pipe(n1, n3, metres(400.0), millimetres(150.0));
  d.net.add_pipe(n2, n4, metres(300.0), millimetres(100.0));
  d.net.add_pipe(n3, n5, metres(300.0), millimetres(100.0));
  d.net.add_pipe(n2, n3, metres(300.0), millimetres(100.0));
  d.net.add_pipe(n4, n6, metres(250.0), millimetres(80.0));
  d.net.add_pipe(n5, n7, metres(250.0), millimetres(80.0));
  d.net.add_pipe(n4, n5, metres(250.0), millimetres(80.0));
  d.net.add_pipe(n6, n7, metres(250.0), millimetres(80.0));
  for (hydro::WaterNetwork::PipeId p = 0; p < d.net.pipe_count(); ++p) {
    d.placements.push_back(fleet::SensorPlacement{p, 0.0});
    d.pipes.push_back(p);
  }
  // The leak goes at n2: a junction the campaign's permanent casualties
  // (which cluster downstream around n4..n7 for this seed) leave observable.
  // A leak at a junction ALL of whose neighbouring pipes are dead is
  // fundamentally ambiguous — graceful degradation means the localizer keeps
  // working wherever coverage survives, not that it beats missing physics.
  (void)n4;
  d.leak_node = n2;
  return d;
}

fleet::FleetConfig make_config() {
  fleet::FleetConfig cfg;
  cfg.sensor.isif = cta::coarse_isif_config();
  cfg.sensor.cta.output_cutoff = util::hertz(2.0);
  cfg.root_seed = kSeed;
  cfg.epoch = Seconds{kEpochS};
  return cfg;
}

fleet::SupervisorConfig make_supervisor_config() {
  fleet::SupervisorConfig cfg;
  // Campaign cadence: a dead channel must be caught well inside the shortest
  // event window (4 s = 16 epochs), so 6 identical readings suffice.
  cfg.health.stuck_count = 6;
  return cfg;
}

fault::FaultCampaign make_campaign(std::size_t sensor_count) {
  // Seeded schedule: 12 events over the first 6 s, each 4–8 s long. Every
  // parameter of event k is a pure function of (kSeed, k), so the schedule —
  // and with it the whole campaign — reproduces bit-identically anywhere.
  return fault::FaultCampaign::random(kSeed, 12, sensor_count, Seconds{0.5},
                                      Seconds{6.0}, Seconds{4.0},
                                      Seconds{8.0});
}

struct RunResult {
  fault::CampaignSummary summary;
  std::vector<fleet::NodeHealthState> final_states;
  fleet::MaskedEstimates leak_estimates;  // masked estimates while leaking
  bool leak_detected = false;
  std::size_t leak_rank = 0;  // 1 = top hypothesis; 0 = not ranked at all
  bool estimates_finite = true;
};

RunResult run_once(unsigned threads) {
  District d = make_district();
  fleet::FleetEngine engine(d.net, d.placements, make_config());
  engine.set_shared_fit(cta::KingFit{0.9, 1.1, 0.5});

  std::unique_ptr<util::ThreadPool> pool;
  if (threads > 0) pool = std::make_unique<util::ThreadPool>(threads);

  // The localizer's healthy baseline must be captured before the leak opens.
  cta::LeakLocalizer localizer(d.net, d.pipes,
                               util::metres_per_second(0.02));
  // This district is heavily loaded; a gentle probe keeps every candidate
  // signature solve convergent.
  localizer.set_probe_emitter(2e-4);
  localizer.calibrate();

  engine.commission(Seconds{0.3}, pool.get());
  fleet::FleetSupervisor supervisor(engine, make_supervisor_config());

  RunResult r;
  r.summary = fault::run_campaign(engine, supervisor, make_campaign(engine.size()),
                                  kCampaignLength, pool.get());

  // Drain: fault-free epochs so every recoverable sensor works its way back
  // through backoff + probation; only the permanent casualties stay out.
  const auto supervise = [&](double seconds) {
    const long long epochs =
        static_cast<long long>(std::lround(seconds / kEpochS));
    for (long long e = 0; e < epochs; ++e) supervisor.step(pool.get());
  };
  supervise(8.0);

  // Degraded-mode localization: with the campaign's permanent casualties
  // still quarantined, spring a leak and ask the surviving subset.
  d.net.set_leak(d.leak_node, 1e-3);
  supervise(4.0);
  r.leak_estimates = engine.latest_estimates_masked();
  for (const double v : r.leak_estimates.values)
    if (!std::isfinite(v)) r.estimates_finite = false;
  r.leak_detected = localizer.leak_detected(r.leak_estimates.values,
                                            r.leak_estimates.valid);
  const auto hypotheses =
      localizer.locate(r.leak_estimates.values, r.leak_estimates.valid);
  for (std::size_t c = 0; c < hypotheses.size(); ++c) {
    if (!std::isfinite(hypotheses[c].estimated_flow_m3s) ||
        !std::isfinite(hypotheses[c].residual_norm))
      r.estimates_finite = false;
    if (hypotheses[c].node == d.leak_node) r.leak_rank = c + 1;
  }

  for (std::size_t i = 0; i < engine.size(); ++i)
    r.final_states.push_back(supervisor.state(i));
  return r;
}

bool summaries_identical(const fault::CampaignSummary& a,
                         const fault::CampaignSummary& b) {
  // Bit-identical is the claim, so plain == on the doubles is exactly right.
  if (a.epochs != b.epochs || a.sim_time_s != b.sim_time_s ||
      a.sensors != b.sensors || a.injected != b.injected ||
      a.hard_injected != b.hard_injected ||
      a.hard_detected != b.hard_detected ||
      a.transient_injected != b.transient_injected ||
      a.transient_detected != b.transient_detected ||
      a.transient_recovered != b.transient_recovered ||
      a.failed_permanently != b.failed_permanently ||
      a.quarantine_flaps != b.quarantine_flaps ||
      a.trace_checksum != b.trace_checksum ||
      a.outcomes.size() != b.outcomes.size())
    return false;
  for (std::size_t k = 0; k < a.outcomes.size(); ++k) {
    const fault::FaultOutcome& x = a.outcomes[k];
    const fault::FaultOutcome& y = b.outcomes[k];
    if (x.injected != y.injected || x.injected_t_s != y.injected_t_s ||
        x.quarantined_t_s != y.quarantined_t_s ||
        x.detection_epochs != y.detection_epochs ||
        x.recovered_t_s != y.recovered_t_s)
      return false;
  }
  return true;
}

struct Options {
  std::string json_path = "fault_campaign_summary.json";
  std::string checkpoint_dir;  // where new checkpoints are written
  std::string resume_dir;      // where to look for one to restore
  long long checkpoint_every = 0;
  long long kill_at_epoch = -1;
  [[nodiscard]] bool runner_mode() const {
    return !checkpoint_dir.empty() || !resume_dir.empty() ||
           checkpoint_every > 0 || kill_at_epoch >= 0;
  }
};

/// The crash-recovery path: campaign only (no drain / leak gates), stepped
/// one epoch at a time through a CampaignRunner so there is a checkpoint
/// boundary to die at and to come back from.
int run_checkpoint_mode(const Options& opt) {
  std::optional<state::CheckpointManager> manager;
  if (!opt.checkpoint_dir.empty())
    manager.emplace(opt.checkpoint_dir, "campaign", 3);

  District d = make_district();
  fleet::FleetEngine engine(d.net, d.placements, make_config());
  engine.set_shared_fit(cta::KingFit{0.9, 1.1, 0.5});

  long long epoch = 0;
  bool resumed = false;
  if (!opt.resume_dir.empty()) {
    state::CheckpointManager source{opt.resume_dir, "campaign", 3};
    const auto loaded = source.load_newest_valid();
    if (!loaded.has_value()) {
      std::fprintf(stderr, "no valid checkpoint under %s\n",
                   opt.resume_dir.c_str());
      return 1;
    }
    // The restore target is a freshly constructed trio — no commissioning;
    // the image carries the fully-commissioned state.
    fleet::FleetSupervisor supervisor(engine, make_supervisor_config());
    fault::CampaignRunner runner{engine, supervisor,
                                 make_campaign(engine.size()),
                                 kCampaignLength};
    runner.restore(loaded->image);
    epoch = static_cast<long long>(loaded->epoch);
    resumed = true;
    std::printf("resumed from %s at epoch %lld\n", loaded->path.c_str(),
                epoch);
    while (!runner.done()) {
      runner.step();
      ++epoch;
      if (manager && opt.checkpoint_every > 0 &&
          epoch % opt.checkpoint_every == 0)
        manager->write(static_cast<std::uint64_t>(epoch), runner.checkpoint());
    }
    const fault::CampaignSummary s = runner.finish();
    std::ofstream out(opt.json_path);
    out << s.to_json();
    std::printf("campaign complete (resumed): checksum %016llx, wrote %s\n",
                static_cast<unsigned long long>(s.trace_checksum),
                opt.json_path.c_str());
    return 0;
  }

  engine.commission(Seconds{0.3});
  fleet::FleetSupervisor supervisor(engine, make_supervisor_config());
  fault::CampaignRunner runner{engine, supervisor, make_campaign(engine.size()),
                               kCampaignLength};
  while (!runner.done()) {
    runner.step();
    ++epoch;
    if (manager && opt.checkpoint_every > 0 &&
        epoch % opt.checkpoint_every == 0)
      manager->write(static_cast<std::uint64_t>(epoch), runner.checkpoint());
    if (opt.kill_at_epoch >= 0 && epoch >= opt.kill_at_epoch) {
      std::printf("simulated crash at epoch %lld — exiting without summary\n",
                  epoch);
      return 0;
    }
  }
  const fault::CampaignSummary s = runner.finish();
  std::ofstream out(opt.json_path);
  out << s.to_json();
  std::printf("campaign complete%s: checksum %016llx, wrote %s\n",
              resumed ? " (resumed)" : "",
              static_cast<unsigned long long>(s.trace_checksum),
              opt.json_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (const char* env_path = std::getenv("AQUA_CAMPAIGN_JSON"))
    opt.json_path = env_path;
  for (int i = 1; i < argc; ++i) {
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", argv[i]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--checkpoint-dir") == 0)
      opt.checkpoint_dir = value();
    else if (std::strcmp(argv[i], "--checkpoint-every") == 0)
      opt.checkpoint_every = std::atoll(value());
    else if (std::strcmp(argv[i], "--kill-at-epoch") == 0)
      opt.kill_at_epoch = std::atoll(value());
    else if (std::strcmp(argv[i], "--resume") == 0)
      opt.resume_dir = value();
    else
      opt.json_path = argv[i];  // positional: summary JSON path, as before
  }
  if (opt.runner_mode()) return run_checkpoint_mode(opt);
  const std::string& json_path = opt.json_path;

  std::printf("fault campaign: seed %llu, %.0f s, epoch %.2f s\n",
              static_cast<unsigned long long>(kSeed), kCampaignLength.value(),
              kEpochS);
  const RunResult serial = run_once(0 /* no pool: caller's thread */);
  const RunResult parallel = run_once(8);

  const fault::CampaignSummary& s = serial.summary;
  std::printf("\n%zu sensors, %lld events injected "
              "(%lld hard, %lld transient)\n",
              s.sensors, s.injected, s.hard_injected, s.transient_injected);
  for (const fault::FaultOutcome& o : s.outcomes)
    std::printf("  sensor %zu %-18s sev %.2f  t=%6.2f s  %s%s\n",
                o.event.sensor, fault::fault_kind_label(o.event.kind),
                o.event.severity, o.injected_t_s,
                o.quarantined_t_s >= 0.0 ? "contained" : "uncontained",
                o.recovered_t_s >= 0.0 ? ", recovered" : "");
  std::printf("hard detected %lld/%lld, transient detected %lld/%lld "
              "(%lld recovered), %lld sensors permanently failed, "
              "%lld flaps\n",
              s.hard_detected, s.hard_injected, s.transient_detected,
              s.transient_injected, s.transient_recovered,
              s.failed_permanently, s.quarantine_flaps);
  std::printf("trace checksum serial %016llx / 8 threads %016llx\n",
              static_cast<unsigned long long>(s.trace_checksum),
              static_cast<unsigned long long>(parallel.summary.trace_checksum));
  std::printf("final states:");
  for (std::size_t i = 0; i < serial.final_states.size(); ++i)
    std::printf(" %zu:%s", i,
                fleet::node_health_state_name(serial.final_states[i]));
  std::printf("\n");
  std::printf("degraded-mode leak: %zu/%zu sensors in service, detected %s, "
              "true junction ranked #%zu\n",
              serial.leak_estimates.valid_count(),
              serial.leak_estimates.values.size(),
              serial.leak_detected ? "yes" : "NO", serial.leak_rank);

  std::ofstream out(json_path);
  out << s.to_json();
  out.close();
  std::printf("summary: wrote %s\n", json_path.c_str());

  // --- the gates -----------------------------------------------------------
  int failures = 0;
  const auto gate = [&failures](bool ok, const char* what) {
    std::printf("gate %-44s %s\n", what, ok ? "PASS" : "FAIL");
    if (!ok) ++failures;
  };
  gate(s.injected == static_cast<long long>(s.outcomes.size()),
       "all scheduled events injected");
  gate(s.hard_detected == s.hard_injected && s.hard_injected > 0,
       "100% of hard faults detected");
  gate(s.quarantine_flaps == 0, "zero quarantine flaps");
  gate(summaries_identical(s, parallel.summary),
       "serial vs 8-thread summaries bit-identical");
  gate(serial.final_states == parallel.final_states,
       "serial vs 8-thread final supervision states");
  gate(serial.estimates_finite, "masked estimates and hypotheses finite");
  gate(serial.leak_detected, "leak detected in degraded mode");
  // Bounded localization error: the true junction must stay in the top 3
  // even though the casualties include the leak's own adjacent pipes.
  gate(serial.leak_rank >= 1 && serial.leak_rank <= 3,
       "leak localization error bounded (top 3)");
  std::printf("\n%s\n", failures == 0 ? "campaign gates: ALL PASS"
                                      : "campaign gates: FAILURES");
  return failures == 0 ? 0 : 1;
}
