#include "fleet/fleet.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <iterator>
#include <numeric>
#include <stdexcept>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "phys/fluid.hpp"
#include "util/math.hpp"

namespace aqua::fleet {

using util::Seconds;

namespace {
constexpr double kGravity = 9.80665;

// Fleet-engine telemetry. The latency histograms record wall time — useful
// for scheduling analysis, explicitly outside the determinism contract (the
// counters and the simulation traces are the deterministic part).
const obs::Counter kEpochs{"fleet.epochs"};
const obs::Counter kSolveFailures{"fleet.solve_failures"};
const obs::Counter kSensorSteps{"fleet.sensor_steps"};
const obs::Histogram kEpochWall{"fleet.epoch_wall_seconds",
                                obs::HistogramSpec{1e-5, 100.0, 42, true}};
const obs::Histogram kSensorStepWall{"fleet.sensor_step_wall_seconds",
                                     obs::HistogramSpec{1e-6, 10.0, 42, true}};
// Scheduling telemetry, measured on every pooled epoch: the busiest worker's
// busy time over the mean busy time (1.0 = all worked equally long; N = one
// of N workers did everything), and the share of the fan-out's
// worker-seconds spent busy rather than waiting for the epoch to end.
const obs::Histogram kWorkerImbalance{"fleet.worker_imbalance",
                                      obs::HistogramSpec{1.0, 64.0, 24, true}};
const obs::Histogram kWorkerUtilization{
    "fleet.worker_utilization", obs::HistogramSpec{0.0, 1.0, 20, false}};

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Checkpoint sections (DESIGN.md §14).
constexpr std::uint32_t kSectionMeta = state::section_id('M', 'E', 'T', 'A');
constexpr std::uint32_t kSectionObs = state::section_id('O', 'B', 'S', 'C');
constexpr std::uint32_t kSectionNet = state::section_id('N', 'E', 'T', 'W');
constexpr std::uint32_t kSectionEngine = state::section_id('F', 'L', 'E', 'N');
constexpr std::uint32_t kSectionNodes = state::section_id('N', 'O', 'D', 'S');

// The counters that are part of the deterministic surface (the fleet
// determinism suite compares them across thread counts); a resumed run must
// finish with the same totals as an uninterrupted one, so they travel in the
// checkpoint. Wall-clock histograms and scheduling counters stay out.
constexpr const char* kCheckpointedCounters[] = {
    "fleet.epochs",
    "fleet.solve_failures",
    "fleet.sensor_steps",
    "fleet.supervisor.quarantines",
    "fleet.supervisor.recoveries",
    "fleet.supervisor.failures",
    "fleet.supervisor.recommission_attempts",
    "fleet.supervisor.self_test_failures",
    "fault.injected",
    "isif.channel.samples",
    "isif.channel.overload_blocks",
    "cta.pi.saturation_events",
    "cta.pi.antiwindup_holds",
    "cta.loop.adc_overload_ticks",
};
}  // namespace

sim::Schedule diurnal_demand_pattern(Seconds day) {
  const double d = day.value();
  sim::Schedule pattern{0.3};
  pattern.hold(Seconds{0.25 * d})                  // night valley
      .ramp_to(1.6, Seconds{0.08 * d})             // morning peak
      .ramp_to(1.0, Seconds{0.10 * d})             // settle to daytime
      .hold(Seconds{0.25 * d})                     // daytime plateau
      .ramp_to(1.3, Seconds{0.10 * d})             // evening peak
      .hold(Seconds{0.12 * d})
      .ramp_to(0.3, Seconds{0.10 * d});            // back to night
  return pattern;
}

FleetEngine::FleetEngine(hydro::WaterNetwork& network,
                         std::span<const SensorPlacement> placements,
                         const FleetConfig& config)
    : net_(network), config_(config) {
  if (!std::isfinite(config.epoch.value()) || !(config.epoch.value() > 0.0))
    throw std::invalid_argument(
        "FleetEngine: epoch must be finite and positive");
  base_demands_.resize(net_.node_count(), 0.0);
  for (hydro::WaterNetwork::NodeId n = 0; n < net_.node_count(); ++n)
    base_demands_[n] = net_.node_demand(n);

  nodes_.reserve(placements.size());
  for (std::size_t i = 0; i < placements.size(); ++i) {
    nodes_.push_back(std::make_unique<SensorNode>(
        i, placements[i], config_.sensor, net_.pipe_diameter(placements[i].pipe),
        util::Rng::stream(config_.root_seed, i)));
  }
  estimate_valid_.assign(nodes_.size(), 1);

  apply_demand_factor(config_.demand_factor.at(Seconds{0.0}));
  if (!net_.solve(config_.water_temperature))
    throw std::runtime_error("FleetEngine: initial network solve failed");
}

void FleetEngine::apply_demand_factor(double factor) {
  for (hydro::WaterNetwork::NodeId n = 0; n < net_.node_count(); ++n)
    if (!net_.node_is_reservoir(n))
      net_.set_demand(n, base_demands_[n] * factor);
}

PipeState FleetEngine::pipe_state_for(const SensorNode& node) const {
  const auto pipe = node.placement().pipe;
  PipeState state;
  state.temperature = config_.water_temperature;
  state.mean_velocity_mps = net_.pipe_velocity(pipe).value();
  state.point_velocity_mps =
      state.mean_velocity_mps *
      node.profile_factor_at(state.mean_velocity_mps, state.temperature);
  // Static pressure at the probe: the upstream node's pressure head (the
  // downstream end for a reservoir-fed pipe) on the atmospheric floor.
  auto tap = net_.pipe_from(pipe);
  if (net_.node_is_reservoir(tap)) tap = net_.pipe_to(pipe);
  const double head = net_.node_is_reservoir(tap)
                          ? 0.0
                          : std::max(0.0, net_.node_pressure_head(tap));
  const double rho = phys::water_properties(state.temperature).density;
  state.pressure =
      util::Pascals{config_.atmospheric.value() + rho * kGravity * head};
  return state;
}

std::vector<double> FleetEngine::dispatch(
    util::ThreadPool* pool, std::size_t items,
    const std::function<void(std::size_t)>& body) {
  if (pool != nullptr) return pool->parallel_for(items, body);
  for (std::size_t k = 0; k < items; ++k) body(k);
  return {};
}

void FleetEngine::commission(Seconds settle, util::ThreadPool* pool) {
  AQUA_TRACE_SPAN_SIM("fleet.commission", t_.value());
  dispatch(pool, nodes_.size(), [&](std::size_t i) {
    SensorNode& node = *nodes_[i];
    // Power-up built-in self-test first (paper §3's test bus); the test
    // restores the channel bit-exactly, so the settle below is unaffected.
    (void)node.run_self_test();
    node.commission(pipe_state_for(node), settle);
  });
}

void FleetEngine::check_sensor(std::size_t i, const char* what) const {
  if (i >= nodes_.size())
    throw std::out_of_range(std::string{"FleetEngine::"} + what +
                            ": sensor " + std::to_string(i) + " of " +
                            std::to_string(nodes_.size()));
}

isif::ChannelSelfTestResult FleetEngine::recommission(std::size_t i,
                                                      Seconds settle) {
  check_sensor(i, "recommission");
  return recommission_node(i, settle, t_.value());
}

isif::ChannelSelfTestResult FleetEngine::recommission_node(std::size_t i,
                                                           Seconds settle,
                                                           double sim_s) {
  AQUA_TRACE_SPAN_SIM("fleet.recommission", sim_s);
  SensorNode& node = *nodes_[i];
  node.reboot();
  const isif::ChannelSelfTestResult result = node.run_self_test();
  node.commission(pipe_state_for(node), settle);
  return result;
}

void FleetEngine::calibrate(std::span<const double> mean_speeds, Seconds dwell,
                            util::ThreadPool* pool) {
  AQUA_TRACE_SPAN_SIM("fleet.calibrate", t_.value());
  dispatch(pool, nodes_.size(), [&](std::size_t i) {
    SensorNode& node = *nodes_[i];
    node.calibrate(pipe_state_for(node), mean_speeds, dwell);
  });
}

void FleetEngine::set_shared_fit(const cta::KingFit& fit) {
  for (auto& node : nodes_) node->set_fit(fit, config_.water_temperature);
}

void FleetEngine::run(Seconds duration, util::ThreadPool* pool) {
  const long long epochs = epochs_for(duration);
  for (long long e = 0; e < epochs; ++e) step_epoch(pool);
}

long long FleetEngine::epochs_for(Seconds duration) const {
  return util::steps_to_cover(duration, config_.epoch);
}

void FleetEngine::advance_sensor(std::size_t i) {
  const obs::ScopedSpan sensor_span{"fleet.sensor", t_.value(),
                                    static_cast<double>(i)};
  const auto t0 = Clock::now();

  SensorNode& node = *nodes_[i];
  node.advance(pipe_state_for(node), config_.epoch);
  kSensorSteps.add(1);

  kSensorStepWall.observe(seconds_since(t0));
}

void FleetEngine::step_epoch(util::ThreadPool* pool,
                             std::span<const std::size_t> due,
                             Seconds settle) {
  // Two items on one sensor would race, so a bad list is refused before the
  // network or any sensor is touched.
  for (std::size_t k = 0; k < due.size(); ++k) {
    check_sensor(due[k], "step_epoch");
    if (k > 0 && due[k] <= due[k - 1])
      throw std::invalid_argument(
          "FleetEngine::step_epoch: due sensors must be strictly increasing");
  }
  const obs::ScopedTimer epoch_timer{kEpochWall};
  AQUA_TRACE_SPAN_SIM("fleet.epoch", t_.value());
  AQUA_TRACE_COUNTER("fleet.sim_time_s", t_.value());
  apply_demand_factor(config_.demand_factor.at(t_));
  {
    AQUA_TRACE_SPAN_SIM("fleet.solve", t_.value());
    if (!net_.solve(config_.water_temperature)) {
      ++solve_failures_;
      kSolveFailures.add(1);
      AQUA_TRACE_INSTANT_SIM("fleet.solve_failure", t_.value());
    }
  }
  // The fan-out only reads the network, so every sensor task derives its
  // pipe state from this epoch's solution. Item k < d is due sensor k: its
  // advance, then its re-commission, which belongs to the epoch boundary the
  // supervisor acts at, so its span carries the end-of-epoch time. Due
  // sensors come first because a re-commission outlasts an advance, which
  // keeps the epoch's tail short. Item k >= d is the (k - d)-th sensor not in
  // `due`.
  const double boundary_s = (t_ + config_.epoch).value();
  const auto t_fanout = Clock::now();
  const std::vector<double> busy_s =
      dispatch(pool, nodes_.size(), [&](std::size_t k) {
        if (k < due.size()) {
          advance_sensor(due[k]);
          (void)recommission_node(due[k], settle, boundary_s);
          return;
        }
        std::size_t i = k - due.size();
        for (const std::size_t u : due) i += u <= i ? 1 : 0;
        advance_sensor(i);
      });
  if (!busy_s.empty()) {
    const double fanout_s = seconds_since(t_fanout);
    const auto workers = static_cast<double>(busy_s.size());
    const double total_busy_s =
        std::accumulate(busy_s.begin(), busy_s.end(), 0.0);
    const double max_busy_s = *std::max_element(busy_s.begin(), busy_s.end());
    if (total_busy_s > 0.0)
      kWorkerImbalance.observe(max_busy_s * workers / total_busy_s);
    if (fanout_s > 0.0)
      kWorkerUtilization.observe(total_busy_s / (workers * fanout_s));
  }

  t_ += config_.epoch;
  ++epoch_index_;
  kEpochs.add(1);
}

void FleetEngine::write_checkpoint(state::CheckpointWriter& ck) const {
  {
    state::Writer& w = ck.begin_section(kSectionMeta);
    w.u64(config_.root_seed);
    // Validation-only counts travel as bare u64s: Reader::size() bounds a
    // count by the bytes behind it, which is wrong for counts whose elements
    // live in *other* sections.
    w.u64(nodes_.size());
    w.f64(config_.epoch.value());
    w.u64(net_.node_count());
    w.u64(net_.pipe_count());
    ck.end_section();
  }
  {
    // Merged totals of the deterministic counters at the quiescent point.
    state::Writer& w = ck.begin_section(kSectionObs);
    const obs::Snapshot snap = obs::Registry::instance().snapshot();
    w.size(std::size(kCheckpointedCounters));
    for (const char* name : kCheckpointedCounters) {
      std::uint64_t value = 0;
      for (const obs::CounterSnapshot& c : snap.counters)
        if (c.name == name) {
          value = c.value;
          break;
        }
      w.str(name);
      w.u64(value);
    }
    ck.end_section();
  }
  {
    state::Writer& w = ck.begin_section(kSectionNet);
    net_.save_state(w);
    ck.end_section();
  }
  {
    state::Writer& w = ck.begin_section(kSectionEngine);
    w.f64(t_.value());
    w.i64(epoch_index_);
    w.i64(solve_failures_);
    w.size(estimate_valid_.size());
    for (const std::uint8_t v : estimate_valid_) w.u8(v);
    ck.end_section();
  }
  {
    state::Writer& w = ck.begin_section(kSectionNodes);
    w.size(nodes_.size());
    for (const auto& node : nodes_) node->save_state(w);
    ck.end_section();
  }
}

std::vector<std::uint8_t> FleetEngine::checkpoint() const {
  state::CheckpointWriter ck;
  write_checkpoint(ck);
  return ck.finish();
}

void FleetEngine::read_checkpoint(const state::CheckpointReader& ck) {
  {
    state::Reader r = ck.section(kSectionMeta);
    if (r.u64() != config_.root_seed)
      throw state::Error("FleetEngine: checkpoint root seed mismatch");
    if (r.u64() != nodes_.size())
      throw state::Error("FleetEngine: checkpoint sensor count mismatch");
    if (std::bit_cast<std::uint64_t>(r.f64()) !=
        std::bit_cast<std::uint64_t>(config_.epoch.value()))
      throw state::Error("FleetEngine: checkpoint epoch length mismatch");
    if (r.u64() != net_.node_count() || r.u64() != net_.pipe_count())
      throw state::Error("FleetEngine: checkpoint network topology mismatch");
    r.expect_end();
  }
  {
    state::Reader r = ck.section(kSectionObs);
    const std::size_t n = r.size(9);
    for (std::size_t i = 0; i < n; ++i) {
      const std::string name = r.str();
      obs::Registry::instance().restore_counter(name, r.u64());
    }
    r.expect_end();
  }
  {
    state::Reader r = ck.section(kSectionNet);
    net_.load_state(r);
    r.expect_end();
  }
  {
    state::Reader r = ck.section(kSectionEngine);
    t_ = Seconds{r.f64()};
    epoch_index_ = r.i64();
    solve_failures_ = r.i64();
    if (r.size(1) != estimate_valid_.size())
      throw state::Error("FleetEngine: estimate mask size mismatch");
    for (std::uint8_t& v : estimate_valid_) v = r.u8();
    r.expect_end();
  }
  {
    state::Reader r = ck.section(kSectionNodes);
    if (r.size(1) != nodes_.size())
      throw state::Error("FleetEngine: checkpoint node count mismatch");
    for (auto& node : nodes_) node->load_state(r);
    r.expect_end();
  }
}

void FleetEngine::restore(std::span<const std::uint8_t> image) {
  const state::CheckpointReader ck{image};
  read_checkpoint(ck);
}

FleetReport FleetEngine::report() const {
  return build_report(net_, nodes_, t_.value());
}

std::size_t MaskedEstimates::valid_count() const {
  std::size_t n = 0;
  for (const std::uint8_t v : valid) n += (v != 0) ? 1 : 0;
  return n;
}

MaskedEstimates FleetEngine::latest_estimates_masked() const {
  MaskedEstimates out;
  out.values.reserve(nodes_.size());
  out.valid.reserve(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const std::vector<TraceSample>& trace = nodes_[i]->trace();
    const bool ok = estimate_valid_[i] != 0 && !trace.empty();
    // Invalid entries are pinned to 0.0 — never the stale pre-fault sample.
    out.values.push_back(ok ? trace.back().estimate_mps : 0.0);
    out.valid.push_back(ok ? 1 : 0);
  }
  return out;
}

void FleetEngine::set_estimate_valid(std::size_t i, bool valid) {
  check_sensor(i, "set_estimate_valid");
  estimate_valid_[i] = valid ? 1 : 0;
}

}  // namespace aqua::fleet
