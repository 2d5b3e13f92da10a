#include "fleet/supervisor.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"

namespace aqua::fleet {

namespace {
// Supervision telemetry. All observations are driven by simulation state, so
// the counters are as deterministic as the traces themselves.
const obs::Counter kQuarantines{"fleet.supervisor.quarantines"};
const obs::Counter kRecoveries{"fleet.supervisor.recoveries"};
const obs::Counter kFailures{"fleet.supervisor.failures"};
const obs::Counter kRecommissions{"fleet.supervisor.recommission_attempts"};
const obs::Counter kSelfTestFailures{"fleet.supervisor.self_test_failures"};
// Epochs from the first faulty assessment of a streak to quarantine entry.
const obs::Histogram kDetectionEpochs{"fleet.supervisor.detection_epochs",
                                      obs::HistogramSpec{1.0, 64.0, 12, true}};

/// Faults that no amount of clean readings should talk the supervisor out of:
/// a broken membrane and a corroded package are physical damage, and a
/// tripped watchdog latches until reboot.
bool is_hard_fault(const std::vector<cta::FaultCode>& faults) {
  for (const cta::FaultCode code : faults) {
    if (code == cta::FaultCode::kMembraneBroken ||
        code == cta::FaultCode::kPackageDegraded ||
        code == cta::FaultCode::kWatchdog)
      return true;
  }
  return false;
}
}  // namespace

const char* node_health_state_name(NodeHealthState state) {
  switch (state) {
    case NodeHealthState::kHealthy: return "healthy";
    case NodeHealthState::kSuspect: return "suspect";
    case NodeHealthState::kQuarantined: return "quarantined";
    case NodeHealthState::kProbation: return "probation";
    case NodeHealthState::kFailed: return "failed";
  }
  return "unknown";
}

FleetSupervisor::FleetSupervisor(FleetEngine& engine,
                                 const SupervisorConfig& config)
    : engine_(engine), config_(config), nodes_(engine.size()) {
  if (config.suspect_epochs < 1 || config.probation_epochs < 1 ||
      config.backoff_initial_epochs < 1 ||
      config.backoff_max_epochs < config.backoff_initial_epochs ||
      config.max_recommission_attempts < 1)
    throw std::invalid_argument("FleetSupervisor: bad configuration");
  monitors_.reserve(engine.size());
  for (std::size_t i = 0; i < engine.size(); ++i) {
    monitors_.emplace_back(config.health);
    nodes_[i].backoff_next = config.backoff_initial_epochs;
  }
}

std::size_t FleetSupervisor::count_in(NodeHealthState state) const {
  std::size_t n = 0;
  for (const NodeSupervision& sup : nodes_)
    if (sup.state == state) ++n;
  return n;
}

std::size_t FleetSupervisor::in_service_count() const {
  return count_in(NodeHealthState::kHealthy) +
         count_in(NodeHealthState::kSuspect);
}

void FleetSupervisor::enter_quarantine(std::size_t i, NodeSupervision& sup) {
  // A probation relapse is a failed recovery attempt: the next wait doubles
  // (capped), the classic backoff against flapping on a persistent fault.
  if (sup.state == NodeHealthState::kProbation)
    sup.backoff_next =
        std::min(sup.backoff_next * 2, config_.backoff_max_epochs);
  sup.state = NodeHealthState::kQuarantined;
  sup.backoff_remaining = sup.backoff_next;
  sup.quarantined_epoch = polls_;
  sup.quarantined_t_s = engine_.now().value();
  ++sup.quarantine_entries;
  ++stats_.quarantines;
  kQuarantines.add(1);
  const double latency_epochs =
      sup.first_fault_epoch >= 0
          ? static_cast<double>(polls_ - sup.first_fault_epoch + 1)
          : 1.0;
  kDetectionEpochs.observe(latency_epochs);
  sup.faulty_streak = 0;
  sup.clean_streak = 0;
  engine_.set_estimate_valid(i, false);
  AQUA_TRACE_INSTANT_SIM("fleet.quarantine", engine_.now().value());
  util::log_warn() << "supervisor: sensor " << i << " quarantined at t="
                   << engine_.now().value() << " s ("
                   << (sup.last_faults.empty()
                           ? "no code"
                           : cta::fault_label(sup.last_faults.front()))
                   << "), backoff " << sup.backoff_remaining << " epochs";
}

void FleetSupervisor::attempt_recommission(std::size_t i,
                                           NodeSupervision& sup) {
  if (sup.recommission_attempts >= config_.max_recommission_attempts) {
    sup.state = NodeHealthState::kFailed;
    ++stats_.failures;
    kFailures.add(1);
    AQUA_TRACE_INSTANT_SIM("fleet.sensor_failed", engine_.now().value());
    util::log_warn() << "supervisor: sensor " << i
                     << " permanently failed after "
                     << sup.recommission_attempts << " re-commission attempts";
    return;
  }
  ++sup.recommission_attempts;
  ++stats_.recommission_attempts;
  kRecommissions.add(1);
  AQUA_TRACE_INSTANT_SIM("fleet.recommission_attempt", engine_.now().value());

  // step() listed this node as due, so the epoch just run re-commissioned it.
  const isif::ChannelSelfTestResult self_test =
      engine_.node(i).last_self_test().value();
  monitors_[i].reset();  // the post-reboot loop starts a fresh history
  if (!self_test.pass) {
    ++stats_.self_test_failures;
    kSelfTestFailures.add(1);
    sup.backoff_next =
        std::min(sup.backoff_next * 2, config_.backoff_max_epochs);
    sup.backoff_remaining = sup.backoff_next;
    return;  // still quarantined; wait out the doubled backoff
  }
  sup.state = NodeHealthState::kProbation;
  sup.clean_streak = 0;
}

void FleetSupervisor::save_state(state::Writer& w) const {
  w.size(nodes_.size());
  for (const NodeSupervision& sup : nodes_) {
    w.u8(static_cast<std::uint8_t>(sup.state));
    w.i32(sup.faulty_streak);
    w.i32(sup.clean_streak);
    w.i32(sup.backoff_remaining);
    w.i32(sup.backoff_next);
    w.i32(sup.recommission_attempts);
    w.i32(sup.quarantine_entries);
    w.i32(sup.recoveries);
    w.i64(sup.first_fault_epoch);
    w.i64(sup.quarantined_epoch);
    w.f64(sup.quarantined_t_s);
    w.f64(sup.recovered_t_s);
    w.size(sup.last_faults.size());
    for (const cta::FaultCode code : sup.last_faults)
      w.i32(static_cast<std::int32_t>(code));
  }
  for (const cta::HealthMonitor& monitor : monitors_)
    monitor.save_state(w);
  w.i64(stats_.quarantines);
  w.i64(stats_.recoveries);
  w.i64(stats_.failures);
  w.i64(stats_.recommission_attempts);
  w.i64(stats_.self_test_failures);
  w.i64(polls_);
}

void FleetSupervisor::load_state(state::Reader& r) {
  if (r.size(46) != nodes_.size())
    throw state::Error("FleetSupervisor: node count mismatch");
  for (NodeSupervision& sup : nodes_) {
    const std::uint8_t st = r.u8();
    if (st > static_cast<std::uint8_t>(NodeHealthState::kFailed))
      throw state::Error("FleetSupervisor: bad node health state");
    sup.state = static_cast<NodeHealthState>(st);
    sup.faulty_streak = r.i32();
    sup.clean_streak = r.i32();
    sup.backoff_remaining = r.i32();
    sup.backoff_next = r.i32();
    sup.recommission_attempts = r.i32();
    sup.quarantine_entries = r.i32();
    sup.recoveries = r.i32();
    sup.first_fault_epoch = r.i64();
    sup.quarantined_epoch = r.i64();
    sup.quarantined_t_s = r.f64();
    sup.recovered_t_s = r.f64();
    sup.last_faults.resize(r.size(4));
    for (cta::FaultCode& code : sup.last_faults)
      code = static_cast<cta::FaultCode>(r.i32());
  }
  for (cta::HealthMonitor& monitor : monitors_) monitor.load_state(r);
  stats_.quarantines = r.i64();
  stats_.recoveries = r.i64();
  stats_.failures = r.i64();
  stats_.recommission_attempts = r.i64();
  stats_.self_test_failures = r.i64();
  polls_ = r.i64();
}

void FleetSupervisor::step(util::ThreadPool* pool) {
  // Exactly the nodes this epoch's poll() re-commissions: quarantined, with
  // the backoff it is about to decrement ending now and attempts left.
  std::vector<std::size_t> due;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const NodeSupervision& sup = nodes_[i];
    if (sup.state == NodeHealthState::kQuarantined &&
        sup.backoff_remaining <= 1 &&
        sup.recommission_attempts < config_.max_recommission_attempts)
      due.push_back(i);
  }
  engine_.step_epoch(pool, due, config_.recommission_settle);
  poll();
}

void FleetSupervisor::poll() {
  ++polls_;
  for (std::size_t i = 0; i < engine_.size(); ++i) {
    NodeSupervision& sup = nodes_[i];
    switch (sup.state) {
      case NodeHealthState::kFailed:
        continue;
      case NodeHealthState::kQuarantined:
        if (--sup.backoff_remaining <= 0) attempt_recommission(i, sup);
        continue;
      default:
        break;
    }

    const std::optional<TraceSample> sample = engine_.node(i).latest_sample();
    if (!sample) continue;  // no epoch has run yet
    const cta::FlowReading reading{
        util::metres_per_second(sample->estimate_mps), sample->direction,
        sample->filtered_voltage};
    const std::vector<cta::FaultCode> faults = monitors_[i].assess(
        engine_.node(i).anemometer(), reading, engine_.config().epoch);

    if (!faults.empty()) {
      if (sup.faulty_streak == 0) sup.first_fault_epoch = polls_;
      ++sup.faulty_streak;
      sup.last_faults = faults;
      if (sup.state == NodeHealthState::kProbation || is_hard_fault(faults) ||
          sup.faulty_streak >= config_.suspect_epochs) {
        enter_quarantine(i, sup);
      } else {
        sup.state = NodeHealthState::kSuspect;
      }
      continue;
    }

    // Clean poll.
    sup.faulty_streak = 0;
    sup.first_fault_epoch = -1;
    if (sup.state == NodeHealthState::kSuspect) {
      sup.state = NodeHealthState::kHealthy;
    } else if (sup.state == NodeHealthState::kProbation) {
      if (++sup.clean_streak >= config_.probation_epochs) {
        sup.state = NodeHealthState::kHealthy;
        sup.clean_streak = 0;
        sup.recovered_t_s = engine_.now().value();
        sup.backoff_next = config_.backoff_initial_epochs;
        sup.recommission_attempts = 0;
        ++sup.recoveries;
        ++stats_.recoveries;
        kRecoveries.add(1);
        engine_.set_estimate_valid(i, true);
        AQUA_TRACE_INSTANT_SIM("fleet.recovered", engine_.now().value());
      }
    }
  }
}

}  // namespace aqua::fleet
