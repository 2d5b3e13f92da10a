// bench_fleet — fleet co-simulation throughput, serial vs the claimed-index
// pool: 32 CTA sensors on a 32-pipe district, each integrating its ΣΔ/CIC/PI
// loop against the diurnal network solution. Reports sensors×sim-seconds per
// wall second for each mode plus a bitwise trace checksum per run — identical
// checksums across all modes are the determinism proof (same root seed ⇒
// bit-identical traces at any thread count).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>

#include "analog/amplifier.hpp"
#include "common.hpp"
#include "fault/campaign.hpp"
#include "fleet/fleet.hpp"
#include "isif/channel.hpp"
#include "maf/die.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "state/checkpoint.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace aqua;
using util::Seconds;

struct District {
  hydro::WaterNetwork net;
  std::vector<fleet::SensorPlacement> placements;
};

// One sensor per pipe of bench::replicated_district — the "widely diffused"
// deployment of paper §6. The largest fleet, the 10k completion run, puts
// several probes on each pipe (at radius fractions 0, 0.09, ...) rather
// than adding pipes; growing its network would move its committed checksum.
District make_district(std::size_t replicas = 1, int probes_per_pipe = 1) {
  District d{bench::replicated_district(replicas), {}};
  for (hydro::WaterNetwork::PipeId p = 0; p < d.net.pipe_count(); ++p)
    for (int k = 0; k < probes_per_pipe; ++k)
      d.placements.push_back(fleet::SensorPlacement{p, 0.09 * k});
  return d;
}

constexpr std::size_t kSensorsPerReplica = 32;

struct RunResult {
  double wall_s = 0.0;
  double throughput = 0.0;  // sensors × sim-seconds per wall second
  std::uint64_t checksum = 0;
  std::size_t sensors = 0;
};

// --- fleet scaling sweep ----------------------------------------------------
// The self-claimed epoch loop's scaling proof: a ~1k-sensor fleet run
// serially and on pools of 2/4/8 from epoch 0, checksum-compared, plus a
// fleet-size completion run (10k by default, 10 probes per pipe) timed
// serially and on a pool of every hardware thread. Sizes are env-tunable:
// AQUA_FLEET_SCALE_SENSORS for the sweep, AQUA_FLEET_XL_SENSORS for the
// completion run (0 skips it).
struct ScalingReport {
  std::size_t sensors = 0;
  long long epochs = 0;
  bool deterministic = true;
  /// Hardware-aware scaling efficiency: max over k ∈ {2, 4} of
  /// speedup(pool_k) / min(k, hardware_threads). Ideal is 1.0 on any
  /// machine with at least 2 hardware threads, so a fixed CI floor (0.8)
  /// works everywhere, including hyperthreaded runners (k=2 uses real
  /// cores). NaN (JSON null) on fewer than 2 hardware threads: there every
  /// run is serial, the ratio is ≈1.0 by construction, and a gate on it
  /// could never fail.
  double efficiency = std::nan("");
  double pool8_over_serial = 0.0;
  std::vector<std::pair<std::string, RunResult>> modes;
  bool xl_ran = false;
  std::size_t xl_sensors = 0;
  long long xl_epochs = 0;
  unsigned xl_threads = 0;
  double xl_serial_wall_s = 0.0;
  double xl_wall_s = 0.0;
  std::uint64_t xl_checksum = 0;
  double xl_peak_rss_mb = 0.0;  // the process's peak RSS after the run
};

std::size_t env_sensors(const char* name, std::size_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  const long long n = std::atoll(v);
  return n <= 0 ? 0 : static_cast<std::size_t>(n);
}

// One scaling-sweep run: `threads` == 0 is serial. Skips commissioning (the
// sweep times the epoch loop, and a 10k settle would dominate) and uses a
// short epoch so the whole sweep stays in budget; the determinism contract is
// load-bearing at any epoch length.
RunResult run_scaling_mode(unsigned threads, std::size_t replicas,
                           double epoch_s, long long epochs,
                           int probes_per_pipe = 1) {
  District d = make_district(replicas, probes_per_pipe);
  fleet::FleetConfig cfg;
  cfg.sensor.isif = cta::coarse_isif_config();
  cfg.sensor.cta.output_cutoff = util::hertz(2.0);
  cfg.root_seed = 42;
  cfg.epoch = Seconds{epoch_s};
  cfg.demand_factor = fleet::diurnal_demand_pattern(Seconds{8.0});
  fleet::FleetEngine engine(d.net, d.placements, cfg);
  engine.set_shared_fit(cta::KingFit{0.9, 1.1, 0.5});

  std::unique_ptr<util::ThreadPool> pool;
  if (threads > 0) pool = std::make_unique<util::ThreadPool>(threads);

  const auto t0 = std::chrono::steady_clock::now();
  engine.run(Seconds{epoch_s * static_cast<double>(epochs)}, pool.get());
  const auto t1 = std::chrono::steady_clock::now();

  RunResult r;
  r.sensors = engine.size();
  r.wall_s = std::chrono::duration<double>(t1 - t0).count();
  r.throughput = static_cast<double>(engine.size()) * epoch_s *
                 static_cast<double>(epochs) / r.wall_s;
  r.checksum = fault::fleet_trace_checksum(engine);
  return r;
}

ScalingReport run_scaling_sweep(unsigned hw) {
  ScalingReport rep;
  const std::size_t target = env_sensors("AQUA_FLEET_SCALE_SENSORS", 1024);
  const std::size_t replicas =
      std::max<std::size_t>(1, (target + kSensorsPerReplica - 1) /
                                   kSensorsPerReplica);
  rep.sensors = replicas * kSensorsPerReplica;
  rep.epochs = 4;
  const double epoch_s = 0.1;

  std::printf("\nfleet scaling sweep: %zu sensors, %lld epochs of %.2f s\n",
              rep.sensors, rep.epochs, epoch_s);
  std::printf("%-12s %10s %16s %18s\n", "mode", "wall [s]", "sensors*sims/s",
              "trace checksum");

  const RunResult serial = run_scaling_mode(0, replicas, epoch_s, rep.epochs);
  rep.modes.emplace_back("serial", serial);
  std::printf("%-12s %10.3f %16.1f   %016llx\n", "serial", serial.wall_s,
              serial.throughput,
              static_cast<unsigned long long>(serial.checksum));

  for (unsigned threads : {2u, 4u, 8u}) {
    const RunResult r = run_scaling_mode(threads, replicas, epoch_s,
                                         rep.epochs);
    const bool same = r.checksum == serial.checksum;
    rep.deterministic = rep.deterministic && same;
    char mode[32];
    std::snprintf(mode, sizeof mode, "pool(%u)", threads);
    rep.modes.emplace_back(mode, r);

    const double speedup =
        serial.throughput > 0.0 ? r.throughput / serial.throughput : 0.0;
    if (threads == 8u) rep.pool8_over_serial = speedup;
    if (hw >= 2 && (threads == 2u || threads == 4u))  // fmax drops the NaN
      rep.efficiency = std::fmax(rep.efficiency,
                                 speedup / std::min<double>(threads, hw));
    std::printf("%-12s %10.3f %16.1f   %016llx%s\n", mode, r.wall_s,
                r.throughput, static_cast<unsigned long long>(r.checksum),
                same ? "" : "  << MISMATCH");
  }
  if (std::isnan(rep.efficiency))
    std::printf("scaling determinism: %s; efficiency n/a (%u hardware thread "
                "— no parallel speedup to measure), pool(8)/serial %.2fx\n",
                rep.deterministic ? "PASS" : "FAIL", hw,
                rep.pool8_over_serial);
  else
    std::printf("scaling determinism: %s; efficiency %.2f (ideal 1.0, CI "
                "floor 0.8), pool(8)/serial %.2fx\n",
                rep.deterministic ? "PASS" : "FAIL", rep.efficiency,
                rep.pool8_over_serial);

  const std::size_t xl_target = env_sensors("AQUA_FLEET_XL_SENSORS", 10240);
  if (xl_target > 0) {
    // 32 districts (1024 pipes, fixed by the committed checksum); the probes
    // per pipe carry the fleet to the target size.
    const std::size_t xl_replicas = 32;
    const std::size_t pipes = xl_replicas * kSensorsPerReplica;
    const int probes = static_cast<int>((xl_target + pipes - 1) / pipes);
    rep.xl_sensors = pipes * static_cast<std::size_t>(probes);
    rep.xl_epochs = 2;
    rep.xl_threads = std::max(1u, hw);
    std::printf("completion run: %zu sensors, serial vs pool(%u) ... ",
                rep.xl_sensors, rep.xl_threads);
    std::fflush(stdout);
    const RunResult xl_serial =
        run_scaling_mode(0, xl_replicas, epoch_s, rep.xl_epochs, probes);
    const RunResult xl = run_scaling_mode(rep.xl_threads, xl_replicas,
                                          epoch_s, rep.xl_epochs, probes);
    rep.xl_ran = true;
    rep.xl_serial_wall_s = xl_serial.wall_s;
    rep.xl_wall_s = xl.wall_s;
    rep.xl_checksum = xl.checksum;
    rep.deterministic = rep.deterministic && xl.checksum == xl_serial.checksum;
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);  // ru_maxrss is in KiB on Linux
    rep.xl_peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
    std::printf("%.1f s serial, %.1f s pooled (%.2fx), checksum %016llx%s, "
                "peak RSS %.0f MB\n",
                xl_serial.wall_s, xl.wall_s, xl_serial.wall_s / xl.wall_s,
                static_cast<unsigned long long>(xl.checksum),
                xl.checksum == xl_serial.checksum ? "" : "  << MISMATCH",
                rep.xl_peak_rss_mb);
  }
  return rep;
}

// --- checkpoint overhead ----------------------------------------------------
// The crash-recovery tax (DESIGN.md §14): the same 32-sensor epoch loop run
// twice in this process, once plain and once writing a durable checkpoint
// (serialize + atomic temp/fsync/rename) every `interval` epochs. The
// throughput ratio is machine-independent — both sides run seconds apart in
// one binary — and CI floors it at 0.9: a checkpoint cadence of 100 epochs
// may cost at most 10 % of fleet throughput.
struct CheckpointOverhead {
  long long epochs = 0;
  long long interval = 100;
  std::size_t image_bytes = 0;     // one engine checkpoint image
  double nockpt_sps = 0.0;         // sensors × sim-s per wall-s, no checkpoints
  double ckpt_sps = 0.0;           // same run with the checkpoint cadence
  double ratio = 0.0;              // ckpt / nockpt — gated >= 0.9
};

CheckpointOverhead measure_checkpoint_overhead() {
  namespace fs = std::filesystem;
  CheckpointOverhead rep;
  rep.epochs = 200;
  rep.interval = 100;
  const double epoch_s = 0.05;

  const auto run = [&rep, epoch_s](bool checkpointing) {
    District d = make_district();
    fleet::FleetConfig cfg;
    cfg.sensor.isif = cta::coarse_isif_config();
    cfg.sensor.cta.output_cutoff = util::hertz(2.0);
    cfg.root_seed = 42;
    cfg.epoch = Seconds{epoch_s};
    cfg.demand_factor = fleet::diurnal_demand_pattern(Seconds{8.0});
    fleet::FleetEngine engine(d.net, d.placements, cfg);
    engine.set_shared_fit(cta::KingFit{0.9, 1.1, 0.5});

    std::optional<state::CheckpointManager> manager;
    std::string dir;
    if (checkpointing) {
      dir = (fs::temp_directory_path() / "aqua_bench_ckpt").string();
      fs::remove_all(dir);
      manager.emplace(dir, "bench", 2);
    }
    const auto t0 = std::chrono::steady_clock::now();
    for (long long e = 1; e <= rep.epochs; ++e) {
      engine.step_epoch();
      if (manager && e % rep.interval == 0) {
        const std::vector<std::uint8_t> image = engine.checkpoint();
        rep.image_bytes = image.size();
        manager->write(static_cast<std::uint64_t>(e), image);
      }
    }
    const auto t1 = std::chrono::steady_clock::now();
    if (checkpointing) fs::remove_all(dir);
    const double wall = std::chrono::duration<double>(t1 - t0).count();
    return static_cast<double>(engine.size()) * epoch_s *
           static_cast<double>(rep.epochs) / wall;
  };
  rep.nockpt_sps = run(false);
  rep.ckpt_sps = run(true);
  rep.ratio = rep.nockpt_sps > 0.0 ? rep.ckpt_sps / rep.nockpt_sps : 0.0;
  return rep;
}

// --- per-stage micro throughput -------------------------------------------
// Samples/s through each hot-path stage, measured standalone so the JSON
// artifact records where the end-to-end fleet number comes from. The
// channel_block / channel_scalar pair is the PR-level contract the CI
// regression gate (ci/bench_compare.py) checks.
struct StageRates {
  double amp_scalar = 0.0;
  double channel_scalar = 0.0;
  double channel_block = 0.0;
  /// Channel block path with the trace recorder compiled in but explicitly
  /// disabled — the cost of the dormant AQUA_TRACE_* branches, gated in CI
  /// like channel_block_sps (a tracing hook that slows the disabled hot path
  /// >20% is a regression).
  double channel_block_tracing_off = 0.0;
  double thermal_step = 0.0;
};

// Repeats `body(batch)` until ~0.2 s has elapsed; returns samples/second.
template <typename Body>
double rate_per_second(long samples_per_batch, Body&& body) {
  using clock = std::chrono::steady_clock;
  long total = 0;
  const auto t0 = clock::now();
  auto t1 = t0;
  do {
    body();
    total += samples_per_batch;
    t1 = clock::now();
  } while (std::chrono::duration<double>(t1 - t0).count() < 0.2);
  return total / std::chrono::duration<double>(t1 - t0).count();
}

StageRates measure_stages() {
  constexpr int kFrame = 128;
  StageRates s;

  {
    analog::InstrumentAmp amp{analog::InstrumentAmpSpec{}, util::hertz(256e3),
                              util::Rng{7}};
    const util::Seconds dt{1.0 / 256e3};
    double sink = 0.0;
    s.amp_scalar = rate_per_second(kFrame, [&] {
      for (int i = 0; i < kFrame; ++i)
        sink += amp.step(util::volts(1e-3), dt);
    });
    if (sink == 42.0) std::printf(" ");  // keep the scalar loop live
  }
  {
    // The gated pair: alternate short scalar/block windows and keep the best
    // of each, so a slow CPU-clock wander on a busy runner hits both paths
    // alike instead of skewing whichever ran second.
    isif::InputChannel ch{isif::ChannelConfig{}, util::Rng{2}};
    isif::InputChannel chf{isif::ChannelConfig{}, util::Rng{2}};
    isif::InputChannel cht{isif::ChannelConfig{}, util::Rng{2}};
    std::vector<double> frame(kFrame, 1e-3);
    double sink = 0.0;
    for (int pass = 0; pass < 3; ++pass) {
      s.channel_scalar = std::max(
          s.channel_scalar, rate_per_second(kFrame, [&] {
            for (int i = 0; i < kFrame; ++i)
              if (auto r = ch.tick(util::volts(1e-3))) sink += r->value;
          }));
      s.channel_block = std::max(
          s.channel_block, rate_per_second(kFrame, [&] {
            sink += chf.process_frame(frame).value;
          }));
      // Same block path under an explicit tracing kill-switch: the window
      // rides the same alternation so clock wander hits all three alike.
      obs::TraceRecorder::set_enabled(false);
      s.channel_block_tracing_off = std::max(
          s.channel_block_tracing_off, rate_per_second(kFrame, [&] {
            sink += cht.process_frame(frame).value;
          }));
    }
    if (sink == 42.0) std::printf(" ");
  }
  {
    maf::MafDie die{maf::MafSpec{}};
    maf::Environment env;
    env.speed = util::metres_per_second(0.8);
    die.set_heater_powers(util::milliwatts(5.0), util::milliwatts(5.0),
                          util::milliwatts(1.0));
    double sink = 0.0;
    s.thermal_step = rate_per_second(64, [&] {
      for (int i = 0; i < 64; ++i) die.step(util::Seconds{4e-6}, env);
      sink += die.heater_a_resistance().value();
    });
    if (sink == 42.0) std::printf(" ");
  }
  return s;
}

// threads == 0: serial on the caller's thread (no pool constructed).
RunResult run_mode(unsigned threads, double sim_seconds) {
  District d = make_district();
  fleet::FleetConfig cfg;
  cfg.sensor.isif = cta::coarse_isif_config();
  cfg.sensor.cta.output_cutoff = util::hertz(2.0);
  cfg.root_seed = 42;
  cfg.epoch = Seconds{0.25};
  cfg.demand_factor = fleet::diurnal_demand_pattern(Seconds{8.0});
  fleet::FleetEngine engine(d.net, d.placements, cfg);
  engine.set_shared_fit(cta::KingFit{0.9, 1.1, 0.5});

  std::unique_ptr<util::ThreadPool> pool;
  if (threads > 0) pool = std::make_unique<util::ThreadPool>(threads);
  engine.commission(Seconds{0.25}, pool.get());

  const auto t0 = std::chrono::steady_clock::now();
  engine.run(Seconds{sim_seconds}, pool.get());
  const auto t1 = std::chrono::steady_clock::now();

  RunResult r;
  r.sensors = engine.size();
  r.wall_s = std::chrono::duration<double>(t1 - t0).count();
  r.throughput =
      static_cast<double>(engine.size()) * sim_seconds / r.wall_s;
  r.checksum = fault::fleet_trace_checksum(engine);
  return r;
}

/// The "host" object of the report: ci/bench_compare.py gates the absolute
/// channel rates only against a baseline recorded on the same host.
std::string host_json(unsigned hw) {
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.starts_with("model name")) {
      const std::size_t value = line.find_first_not_of(" \t:", 10);
      if (value != std::string::npos) cpu = line.substr(value);
      break;
    }
  }
  return "  \"host\": {\"cpu_model\": \"" + obs::escape_json_string(cpu) +
         "\", \"hardware_threads\": " + std::to_string(hw) +
         ", \"compiler\": \"" + obs::escape_json_string(__VERSION__) +
         "\", \"build_type\": \"" + AQUA_BENCH_BUILD_TYPE + "\"},\n";
}

/// Machine-readable result file (CI artifact): the host, per-mode
/// timings/checksums plus the merged metrics snapshot — epoch/step latency
/// histograms, channel overload and PI saturation counters accumulated over
/// every mode.
void write_json_report(const std::vector<std::pair<std::string, RunResult>>& modes,
                       const StageRates& stages, const ScalingReport& scaling,
                       const CheckpointOverhead& ckpt, unsigned hw,
                       bool deterministic) {
  const char* env_path = std::getenv("AQUA_BENCH_JSON");
  const std::string path = env_path != nullptr ? env_path : "BENCH_fleet.json";

  std::string out;
  out += "{\n  \"bench\": \"bench_fleet\",\n";
  out += host_json(hw);
  out += std::string("  \"deterministic\": ") +
         (deterministic ? "true" : "false") + ",\n";
  out += "  \"modes\": [\n";
  for (std::size_t i = 0; i < modes.size(); ++i) {
    const auto& [name, r] = modes[i];
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "    {\"mode\": \"%s\", \"wall_s\": %.6f, "
                  "\"throughput\": %.3f, \"sensors\": %zu, "
                  "\"checksum\": \"%016llx\"}%s\n",
                  name.c_str(), r.wall_s, r.throughput, r.sensors,
                  static_cast<unsigned long long>(r.checksum),
                  i + 1 < modes.size() ? "," : "");
    out += buf;
  }
  out += "  ],\n";
  {
    // Epoch-loop scaling: the machine-independent efficiency ratio
    // ci/bench_compare.py gates (null below 2 hardware threads), plus the
    // raw sweep for the artifact.
    char buf[512];
    std::snprintf(
        buf, sizeof buf,
        "  \"scaling\": {\n"
        "    \"sensors\": %zu,\n"
        "    \"epochs\": %lld,\n"
        "    \"hardware_threads\": %u,\n"
        "    \"deterministic\": %s,\n"
        "    \"fleet_scaling_efficiency\": %s,\n"
        "    \"pool8_over_serial\": %.3f,\n"
        "    \"modes\": [\n",
        scaling.sensors, scaling.epochs, hw,
        scaling.deterministic ? "true" : "false",
        obs::json_double(scaling.efficiency).c_str(),
        scaling.pool8_over_serial);
    out += buf;
    for (std::size_t i = 0; i < scaling.modes.size(); ++i) {
      const auto& [name, r] = scaling.modes[i];
      std::snprintf(buf, sizeof buf,
                    "      {\"mode\": \"%s\", \"wall_s\": %.6f, "
                    "\"throughput\": %.3f, \"checksum\": \"%016llx\"}%s\n",
                    name.c_str(), r.wall_s, r.throughput,
                    static_cast<unsigned long long>(r.checksum),
                    i + 1 < scaling.modes.size() ? "," : "");
      out += buf;
    }
    out += "    ],\n";
    if (scaling.xl_ran) {
      std::snprintf(buf, sizeof buf,
                    "    \"completion_run\": {\"sensors\": %zu, "
                    "\"epochs\": %lld, \"threads\": %u, "
                    "\"serial_wall_s\": %.3f, \"wall_s\": %.3f, "
                    "\"speedup\": %.3f, \"checksum\": \"%016llx\", "
                    "\"peak_rss_mb\": %.1f}\n",
                    scaling.xl_sensors, scaling.xl_epochs, scaling.xl_threads,
                    scaling.xl_serial_wall_s, scaling.xl_wall_s,
                    scaling.xl_serial_wall_s / scaling.xl_wall_s,
                    static_cast<unsigned long long>(scaling.xl_checksum),
                    scaling.xl_peak_rss_mb);
      out += buf;
    } else {
      out += "    \"completion_run\": null\n";
    }
    out += "  },\n";
  }
  {
    // Per-stage micro throughput (samples/s): where the end-to-end number
    // comes from, and the input to the CI regression gate.
    char buf[2048];
    std::snprintf(
        buf, sizeof buf,
        "  \"stages\": {\n"
        "    \"amp_scalar_sps\": %.0f,\n"
        "    \"channel_scalar_sps\": %.0f,\n"
        "    \"channel_block_sps\": %.0f,\n"
        "    \"channel_block_over_scalar\": %.3f,\n"
        "    \"channel_block_tracing_off_sps\": %.0f,\n"
        "    \"channel_tracing_off_over_block\": %.3f,\n"
        "    \"fleet_nockpt_sps\": %.0f,\n"
        "    \"fleet_ckpt_sps\": %.0f,\n"
        "    \"fleet_ckpt_over_nockpt\": %.3f,\n"
        "    \"checkpoint_interval_epochs\": %lld,\n"
        "    \"checkpoint_image_bytes\": %zu,\n"
        "    \"thermal_step_sps\": %.0f\n"
        "  },\n",
        stages.amp_scalar, stages.channel_scalar, stages.channel_block,
        stages.channel_scalar > 0.0
            ? stages.channel_block / stages.channel_scalar
            : 0.0,
        stages.channel_block_tracing_off,
        stages.channel_block > 0.0
            ? stages.channel_block_tracing_off / stages.channel_block
            : 0.0,
        ckpt.nockpt_sps, ckpt.ckpt_sps, ckpt.ratio, ckpt.interval,
        ckpt.image_bytes, stages.thermal_step);
    out += buf;
  }
  // Re-indent the snapshot under the "metrics" key (it renders from column 0).
  std::string metrics = obs::to_json(obs::Registry::instance().snapshot());
  std::string indented;
  indented.reserve(metrics.size());
  for (char c : metrics) {
    indented += c;
    if (c == '\n') indented += "  ";
  }
  out += "  \"metrics\": " + indented + "\n}\n";

  obs::write_file(path, out);
  std::printf("metrics: wrote %s\n", path.c_str());
}

}  // namespace

int main() {
  aqua::bench::banner(
      "bench_fleet", "fleet co-simulation scaling (paper §6)",
      "many cheap sensors diffused over the network, co-simulated; serial "
      "and parallel runs must agree bit-for-bit");

  const double sim_seconds = 4.0;
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("hardware threads: %u, sensors: 32, sim horizon: %.1f s "
              "(epoch 0.25 s, diurnal day 8 s, coarse ISIF)\n\n",
              hw, sim_seconds);
  std::printf("%-12s %10s %16s %18s\n", "mode", "wall [s]",
              "sensors*sims/s", "trace checksum");

  std::vector<std::pair<std::string, RunResult>> results;

  // Trace the timed modes: the capture itself is part of what this bench
  // proves (identical checksums with tracing enabled = the no-perturbation
  // contract). Pool workers name their tracks as each pool spins up.
  obs::TraceRecorder::set_enabled(true);
  obs::TraceRecorder::set_thread_name("main");

  const RunResult serial = run_mode(0, sim_seconds);
  results.emplace_back("serial", serial);
  std::printf("%-12s %10.3f %16.1f %18llx\n", "serial", serial.wall_s,
              serial.throughput,
              static_cast<unsigned long long>(serial.checksum));

  bool deterministic = true;
  for (unsigned threads : {1u, 2u, 4u, 8u}) {
    const RunResult r = run_mode(threads, sim_seconds);
    const bool same = r.checksum == serial.checksum;
    deterministic = deterministic && same;
    char mode[32];
    std::snprintf(mode, sizeof mode, "pool(%u)", threads);
    results.emplace_back(mode, r);
    std::printf("%-12s %10.3f %16.1f %18llx%s\n", mode, r.wall_s,
                r.throughput, static_cast<unsigned long long>(r.checksum),
                same ? "" : "  << MISMATCH");
  }

  std::printf("\ndeterminism: %s — every mode reproduced the serial traces "
              "bit-for-bit\n",
              deterministic ? "PASS" : "FAIL");

  // Export the capture next to the metrics artifact, then disable tracing so
  // the stage micro-benchmarks below measure the dormant-branch hot path.
  {
    const char* env_trace = std::getenv("AQUA_TRACE_JSON");
    const std::string trace_path =
        env_trace != nullptr ? env_trace : "BENCH_fleet_trace.json";
    obs::write_chrome_trace(trace_path,
                            obs::TraceRecorder::instance().snapshot());
    std::printf("trace: wrote %s (open at https://ui.perfetto.dev)\n",
                trace_path.c_str());
  }
  obs::TraceRecorder::set_enabled(false);

  // Scaling sweep runs with tracing off: a 10k-sensor capture would swamp the
  // ring buffers, and the dormant-branch cost is what production pays.
  const ScalingReport scaling = run_scaling_sweep(hw);

  std::printf("\nper-stage micro throughput (samples/s):\n");
  const StageRates stages = measure_stages();
  std::printf("  %-22s %12.3e\n", "amp scalar", stages.amp_scalar);
  std::printf("  %-22s %12.3e\n", "channel scalar ticks", stages.channel_scalar);
  std::printf("  %-22s %12.3e  (%.2fx scalar)\n", "channel block frames",
              stages.channel_block,
              stages.channel_scalar > 0.0
                  ? stages.channel_block / stages.channel_scalar
                  : 0.0);
  std::printf("  %-22s %12.3e  (%.2fx traced-build block)\n",
              "channel (tracing off)", stages.channel_block_tracing_off,
              stages.channel_block > 0.0
                  ? stages.channel_block_tracing_off / stages.channel_block
                  : 0.0);
  std::printf("  %-22s %12.3e\n", "thermal die step", stages.thermal_step);

  const CheckpointOverhead ckpt = measure_checkpoint_overhead();
  std::printf("\ncheckpoint overhead: %.1f sensors*sims/s plain vs %.1f with "
              "a durable checkpoint every %lld epochs (%.2fx, CI floor 0.90; "
              "image %zu bytes)\n",
              ckpt.nockpt_sps, ckpt.ckpt_sps, ckpt.interval, ckpt.ratio,
              ckpt.image_bytes);

  write_json_report(results, stages, scaling, ckpt, hw, deterministic);
  if (hw <= 1)
    std::printf("note: single hardware thread — parallel modes time-slice "
                "one core, so no wall-clock speedup is expected here.\n");
  return (deterministic && scaling.deterministic) ? 0 : 1;
}
