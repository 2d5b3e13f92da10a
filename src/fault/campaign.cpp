#include "fault/campaign.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"

namespace aqua::fault {

using util::Seconds;

namespace {
const obs::Counter kInjected{"fault.injected"};

// --- severity → physical scale maps ----------------------------------------
// Bubble film: fraction of the die surface blanketed at full severity.
constexpr double kBubbleCoverageMax = 0.9;
// Mineral/biofilm layer thickness at full severity.
constexpr double kDepositThicknessMax = 50e-6;  // m
// Moisture ingress: enough to pull the package insulation below the healthy
// limit even at the lowest severity (hard faults must be detectable).
double moisture_amount(double severity) { return 0.8 + 0.2 * severity; }
// Stuck output bit: severity selects which mid/high bit of the 16-bit word
// latches high (higher severity = more significant bit = larger corruption).
std::uint32_t stuck_mask(double severity) {
  const int bit = 10 + static_cast<int>(std::lround(
                           std::clamp(severity, 0.0, 1.0) * 4.0));
  return 1u << bit;
}
// Input-referred front-end offset at full severity.
constexpr double kOffsetMaxVolts = 0.05;
// Brownout: rail scale factor floor at full severity.
double brownout_droop(double severity) {
  return std::clamp(1.0 - 0.5 * severity, 0.3, 1.0);
}
// Runaway handler: cycles stolen on the next firmware tick — orders of
// magnitude past any per-period budget, so the watchdog latches immediately.
double overrun_cycles(double severity) { return 1e6 * (0.5 + severity); }

bool is_surface(FaultKind kind) {
  return kind == FaultKind::kBubbleAdhesion ||
         kind == FaultKind::kFoulingDeposit;
}
bool is_channel(FaultKind kind) {
  return kind == FaultKind::kAdcStuckBits ||
         kind == FaultKind::kAdcOffsetDrift;
}
bool is_permanent(FaultKind kind) {
  return kind == FaultKind::kMembraneOverpressure ||
         kind == FaultKind::kMoistureIngress;
}
}  // namespace

FaultCampaign& FaultCampaign::add(const FaultEvent& event) {
  if (event.severity < 0.0 || event.severity > 1.0)
    throw std::invalid_argument("FaultCampaign: severity outside [0,1]");
  events_.push_back(event);
  return *this;
}

FaultCampaign FaultCampaign::random(std::uint64_t seed, std::size_t count,
                                    std::size_t sensor_count,
                                    Seconds earliest, Seconds horizon,
                                    Seconds min_duration,
                                    Seconds max_duration) {
  if (sensor_count == 0)
    throw std::invalid_argument("FaultCampaign: no sensors");
  if (horizon.value() <= earliest.value())
    throw std::invalid_argument("FaultCampaign: empty schedule window");
  FaultCampaign campaign{seed};
  for (std::size_t k = 0; k < count; ++k) {
    // Event k draws only from its own counter-based stream: the schedule is
    // a pure function of (seed, k), independent of evaluation order.
    util::Rng rng = util::Rng::stream(seed, k);
    FaultEvent ev;
    ev.kind = static_cast<FaultKind>(rng.below(kFaultKindCount));
    ev.sensor = static_cast<std::size_t>(rng.below(sensor_count));
    ev.start = Seconds{rng.uniform(earliest.value(), horizon.value())};
    ev.duration =
        Seconds{rng.uniform(min_duration.value(), max_duration.value())};
    ev.severity = rng.uniform(0.5, 1.0);
    campaign.add(ev);
  }
  return campaign;
}

FaultInjector::FaultInjector(fleet::FleetEngine& engine,
                             const FaultCampaign& campaign)
    : engine_(engine), events_(campaign.events()) {
  for (const FaultEvent& ev : events_)
    if (ev.sensor >= engine.size())
      throw std::invalid_argument("FaultInjector: event sensor out of range");
  started_.assign(events_.size(), 0);
  expired_.assign(events_.size(), 0);
  injection_t_s_.assign(events_.size(), -1.0);
}

void FaultInjector::apply_start(std::size_t k, Seconds now) {
  const FaultEvent& ev = events_[k];
  auto& anemometer = engine_.node(ev.sensor).anemometer();
  switch (ev.kind) {
    case FaultKind::kMembraneOverpressure:
      anemometer.die().damage_membrane();
      break;
    case FaultKind::kMoistureIngress:
      anemometer.package().inject_moisture(moisture_amount(ev.severity));
      break;
    case FaultKind::kWatchdogOverrun:
      anemometer.platform().firmware().inject_overrun_cycles(
          overrun_cycles(ev.severity));
      break;
    default:
      break;  // surface/channel/rail kinds are applied by the refreshers
  }
  started_[k] = 1;
  injection_t_s_[k] = now.value();
  ++injections_;
  kInjected.add(1);
  anemometer.flight().record(anemometer.now().value(),
                             obs::FlightRecordKind::kFaultInjected,
                             static_cast<std::int32_t>(ev.kind), ev.severity,
                             fault_kind_label(ev.kind));
  AQUA_TRACE_INSTANT_SIM("fault.injected", now.value());
}

void FaultInjector::apply_expiry(std::size_t k) {
  expired_[k] = 1;  // the refreshers rebuild the sensor's aggregate state
}

void FaultInjector::refresh_surface(std::size_t sensor, Seconds now) {
  // Aggregate every active surface event into one coverage / one thickness
  // (max wins — two bubbles don't insulate twice). Expired events drop out,
  // which is the detach/clean.
  double coverage = 0.0;
  double thickness = 0.0;
  for (std::size_t k = 0; k < events_.size(); ++k) {
    const FaultEvent& ev = events_[k];
    if (ev.sensor != sensor || !is_surface(ev.kind)) continue;
    if (started_[k] == 0 || expired_[k] != 0) continue;
    // Linear growth over the first half of the window, then full severity.
    const double ramp = std::max(0.5 * ev.duration.value(), 1e-9);
    const double phase =
        std::clamp((now.value() - ev.start.value()) / ramp, 0.0, 1.0);
    if (ev.kind == FaultKind::kBubbleAdhesion)
      coverage = std::max(coverage, kBubbleCoverageMax * ev.severity * phase);
    else
      thickness =
          std::max(thickness, kDepositThicknessMax * ev.severity * phase);
  }
  auto& die = engine_.node(sensor).anemometer().die();
  die.fouling_a().set_bubble_coverage(coverage);
  die.fouling_b().set_bubble_coverage(coverage);
  die.fouling_a().set_deposit_thickness(thickness);
  die.fouling_b().set_deposit_thickness(thickness);
}

void FaultInjector::refresh_channel(std::size_t sensor) {
  isif::ChannelFault agg;
  double droop = 1.0;
  for (std::size_t k = 0; k < events_.size(); ++k) {
    const FaultEvent& ev = events_[k];
    if (ev.sensor != sensor) continue;
    if (started_[k] == 0 || expired_[k] != 0) continue;
    if (ev.kind == FaultKind::kAdcStuckBits)
      agg.stuck_high |= stuck_mask(ev.severity);
    else if (ev.kind == FaultKind::kAdcOffsetDrift)
      agg.offset_volts += kOffsetMaxVolts * ev.severity;
    else if (ev.kind == FaultKind::kDacBrownout)
      droop = std::min(droop, brownout_droop(ev.severity));
  }
  auto& platform = engine_.node(sensor).anemometer().platform();
  if (agg.any())
    platform.channel(0).inject_fault(agg);
  else
    platform.channel(0).clear_fault();
  platform.dac(0).set_supply_droop(droop);
}

void FaultInjector::update(Seconds now) {
  std::vector<std::uint8_t> touch_surface(engine_.size(), 0);
  std::vector<std::uint8_t> touch_channel(engine_.size(), 0);
  for (std::size_t k = 0; k < events_.size(); ++k) {
    const FaultEvent& ev = events_[k];
    if (started_[k] == 0 && now.value() >= ev.start.value()) {
      apply_start(k, now);
      if (ev.kind == FaultKind::kWatchdogOverrun)
        expired_[k] = 1;  // one-shot; the latch lives in the firmware
    }
    if (started_[k] != 0 && expired_[k] == 0 && !is_permanent(ev.kind) &&
        now.value() >= ev.start.value() + ev.duration.value()) {
      apply_expiry(k);
      if (is_surface(ev.kind)) touch_surface[ev.sensor] = 1;
      else touch_channel[ev.sensor] = 1;
    }
    if (started_[k] != 0 && expired_[k] == 0) {
      if (is_surface(ev.kind)) touch_surface[ev.sensor] = 1;  // ramps
      else if (is_channel(ev.kind) || ev.kind == FaultKind::kDacBrownout)
        touch_channel[ev.sensor] = 1;
    }
  }
  // Only touched sensors are rebuilt: a fleet with no active events executes
  // no injection code at all (the zero-perturbation contract).
  for (std::size_t s = 0; s < engine_.size(); ++s) {
    if (touch_surface[s] != 0) refresh_surface(s, now);
    if (touch_channel[s] != 0) refresh_channel(s);
  }
}

std::uint64_t fleet_trace_checksum(const fleet::FleetEngine& engine) {
  std::uint64_t checksum = 0;
  for (std::size_t i = 0; i < engine.size(); ++i)
    for (const fleet::TraceSample& s : engine.node(i).trace()) {
      checksum ^= std::bit_cast<std::uint64_t>(s.bridge_voltage);
      checksum ^= std::bit_cast<std::uint64_t>(s.estimate_mps) * 0x9E37u;
      checksum ^= std::bit_cast<std::uint64_t>(s.true_mean_mps) * 0x85EBu;
    }
  return checksum;
}

void FaultInjector::save_state(state::Writer& w) const {
  w.size(events_.size());
  for (const std::uint8_t s : started_) w.u8(s);
  for (const std::uint8_t e : expired_) w.u8(e);
  for (const double t : injection_t_s_) w.f64(t);
  w.i64(injections_);
}

void FaultInjector::load_state(state::Reader& r) {
  if (r.size(10) != events_.size())
    throw state::Error("FaultInjector: event count mismatch");
  for (std::uint8_t& s : started_) s = r.u8();
  for (std::uint8_t& e : expired_) e = r.u8();
  for (double& t : injection_t_s_) t = r.f64();
  injections_ = r.i64();
}

namespace {
// Campaign-level checkpoint sections, appended after the engine's.
constexpr std::uint32_t kSectionSupervisor =
    state::section_id('S', 'U', 'P', 'V');
constexpr std::uint32_t kSectionInjector =
    state::section_id('I', 'N', 'J', 'C');
constexpr std::uint32_t kSectionCampaign =
    state::section_id('C', 'A', 'M', 'P');
}  // namespace

CampaignRunner::CampaignRunner(fleet::FleetEngine& engine,
                               fleet::FleetSupervisor& supervisor,
                               const FaultCampaign& campaign,
                               Seconds duration)
    : engine_(engine), supervisor_(supervisor), injector_(engine, campaign) {
  const std::vector<FaultEvent>& events = campaign.events();
  summary_.sensors = engine.size();
  summary_.outcomes.reserve(events.size());
  for (const FaultEvent& ev : events) {
    FaultOutcome outcome;
    outcome.event = ev;
    outcome.hard = fault_kind_is_hard(ev.kind);
    summary_.outcomes.push_back(outcome);
  }

  injection_epoch_.assign(events.size(), -1);
  prev_quarantines_.assign(engine.size(), 0);
  prev_recoveries_.assign(engine.size(), 0);
  for (std::size_t i = 0; i < engine.size(); ++i) {
    prev_quarantines_[i] = supervisor.supervision(i).quarantine_entries;
    prev_recoveries_[i] = supervisor.supervision(i).recoveries;
  }

  total_epochs_ = engine.epochs_for(duration);
}

void CampaignRunner::step(util::ThreadPool* pool) {
  if (done())
    throw std::logic_error("CampaignRunner::step: campaign already complete");
  const long long e = epoch_;
  injector_.update(engine_.now());
  for (std::size_t k = 0; k < summary_.outcomes.size(); ++k) {
    if (injection_epoch_[k] < 0 && injector_.started(k)) {
      injection_epoch_[k] = e;
      summary_.outcomes[k].injected = true;
      summary_.outcomes[k].injected_t_s = injector_.injection_time_s(k);
      const fleet::NodeHealthState st =
          supervisor_.state(summary_.outcomes[k].event.sensor);
      if (st == fleet::NodeHealthState::kQuarantined ||
          st == fleet::NodeHealthState::kFailed) {
        // Injected into a sensor already out of service: supervision has
        // already acted and the fault cannot reach the localizer, so the
        // event counts as contained at injection time.
        summary_.outcomes[k].quarantined_t_s = injector_.injection_time_s(k);
        summary_.outcomes[k].detection_epochs = 0;
      }
    }
  }
  supervisor_.step(pool);
  for (std::size_t i = 0; i < engine_.size(); ++i) {
    const fleet::NodeSupervision& sup = supervisor_.supervision(i);
    if (sup.quarantine_entries > prev_quarantines_[i]) {
      prev_quarantines_[i] = sup.quarantine_entries;
      for (std::size_t k = 0; k < summary_.outcomes.size(); ++k) {
        FaultOutcome& outcome = summary_.outcomes[k];
        if (outcome.event.sensor != i || !outcome.injected) continue;
        if (outcome.quarantined_t_s >= 0.0) continue;
        outcome.quarantined_t_s = sup.quarantined_t_s;
        outcome.detection_epochs = e - injection_epoch_[k] + 1;
      }
    }
    if (sup.recoveries > prev_recoveries_[i]) {
      prev_recoveries_[i] = sup.recoveries;
      for (FaultOutcome& outcome : summary_.outcomes) {
        if (outcome.event.sensor != i) continue;
        if (outcome.quarantined_t_s < 0.0 || outcome.recovered_t_s >= 0.0)
          continue;
        outcome.recovered_t_s = sup.recovered_t_s;
      }
    }
  }
  ++epoch_;
}

CampaignSummary CampaignRunner::finish() const {
  CampaignSummary summary = summary_;
  summary.epochs = total_epochs_;
  summary.sim_time_s = engine_.now().value();
  summary.injected = injector_.injections();
  std::vector<int> events_on_sensor(engine_.size(), 0);
  for (const FaultOutcome& outcome : summary.outcomes) {
    if (!outcome.injected) continue;
    ++events_on_sensor[outcome.event.sensor];
    if (outcome.hard) {
      ++summary.hard_injected;
      if (outcome.quarantined_t_s >= 0.0) ++summary.hard_detected;
    } else {
      ++summary.transient_injected;
      if (outcome.quarantined_t_s >= 0.0) {
        ++summary.transient_detected;
        if (outcome.recovered_t_s >= 0.0) ++summary.transient_recovered;
      }
    }
  }
  // Flaps: quarantine activity on sensors that had no fault injected at all —
  // pure supervisor false positives. The CI gate requires zero.
  for (std::size_t i = 0; i < engine_.size(); ++i)
    if (events_on_sensor[i] == 0)
      summary.quarantine_flaps +=
          supervisor_.supervision(i).quarantine_entries;
  for (std::size_t i = 0; i < engine_.size(); ++i)
    if (supervisor_.state(i) == fleet::NodeHealthState::kFailed)
      ++summary.failed_permanently;
  summary.trace_checksum = fleet_trace_checksum(engine_);
  return summary;
}

std::vector<std::uint8_t> CampaignRunner::checkpoint() const {
  state::CheckpointWriter ck;
  engine_.write_checkpoint(ck);
  {
    state::Writer& w = ck.begin_section(kSectionSupervisor);
    supervisor_.save_state(w);
    ck.end_section();
  }
  {
    state::Writer& w = ck.begin_section(kSectionInjector);
    injector_.save_state(w);
    ck.end_section();
  }
  {
    state::Writer& w = ck.begin_section(kSectionCampaign);
    w.i64(epoch_);
    w.i64(total_epochs_);
    w.size(injection_epoch_.size());
    for (const long long e : injection_epoch_) w.i64(e);
    w.size(prev_quarantines_.size());
    for (const int q : prev_quarantines_) w.i32(q);
    for (const int v : prev_recoveries_) w.i32(v);
    // Only the mutable outcome fields; event/hard are rebuilt from the
    // (identical) campaign at construction.
    for (const FaultOutcome& o : summary_.outcomes) {
      w.boolean(o.injected);
      w.f64(o.injected_t_s);
      w.f64(o.quarantined_t_s);
      w.i64(o.detection_epochs);
      w.f64(o.recovered_t_s);
    }
    ck.end_section();
  }
  return ck.finish();
}

void CampaignRunner::restore(std::span<const std::uint8_t> image) {
  const state::CheckpointReader ck{image};
  engine_.read_checkpoint(ck);
  {
    state::Reader r = ck.section(kSectionSupervisor);
    supervisor_.load_state(r);
    r.expect_end();
  }
  {
    state::Reader r = ck.section(kSectionInjector);
    injector_.load_state(r);
    r.expect_end();
  }
  {
    state::Reader r = ck.section(kSectionCampaign);
    epoch_ = r.i64();
    const long long total = r.i64();
    if (total != total_epochs_)
      throw state::Error("CampaignRunner: campaign length mismatch");
    if (epoch_ < 0 || epoch_ > total_epochs_)
      throw state::Error("CampaignRunner: epoch cursor out of range");
    if (r.size(8) != injection_epoch_.size())
      throw state::Error("CampaignRunner: event count mismatch");
    for (long long& e : injection_epoch_) e = r.i64();
    if (r.size(4) != prev_quarantines_.size())
      throw state::Error("CampaignRunner: sensor count mismatch");
    for (int& q : prev_quarantines_) q = r.i32();
    for (int& v : prev_recoveries_) v = r.i32();
    for (FaultOutcome& o : summary_.outcomes) {
      o.injected = r.boolean();
      o.injected_t_s = r.f64();
      o.quarantined_t_s = r.f64();
      o.detection_epochs = r.i64();
      o.recovered_t_s = r.f64();
    }
    r.expect_end();
  }
}

CampaignSummary run_campaign(fleet::FleetEngine& engine,
                             fleet::FleetSupervisor& supervisor,
                             const FaultCampaign& campaign, Seconds duration,
                             util::ThreadPool* pool) {
  CampaignRunner runner{engine, supervisor, campaign, duration};
  // Injection and outcome scans run serially between epochs; the epoch's
  // fan-out across `pool` also runs the supervisor's due re-commissions
  // (the determinism contract, DESIGN.md §11).
  while (!runner.done()) runner.step(pool);
  return runner.finish();
}

std::string CampaignSummary::to_json() const {
  std::string out = "{\n";
  char buf[384];
  std::snprintf(buf, sizeof buf,
                "  \"epochs\": %lld,\n  \"sim_time_s\": %.6f,\n"
                "  \"sensors\": %zu,\n  \"injected\": %lld,\n"
                "  \"hard_injected\": %lld,\n  \"hard_detected\": %lld,\n"
                "  \"transient_injected\": %lld,\n"
                "  \"transient_detected\": %lld,\n"
                "  \"transient_recovered\": %lld,\n"
                "  \"failed_permanently\": %lld,\n"
                "  \"quarantine_flaps\": %lld,\n"
                "  \"trace_checksum\": \"%016llx\",\n",
                epochs, sim_time_s, sensors, injected, hard_injected,
                hard_detected, transient_injected, transient_detected,
                transient_recovered, failed_permanently, quarantine_flaps,
                static_cast<unsigned long long>(trace_checksum));
  out += buf;
  out += "  \"outcomes\": [\n";
  for (std::size_t k = 0; k < outcomes.size(); ++k) {
    const FaultOutcome& o = outcomes[k];
    std::snprintf(
        buf, sizeof buf,
        "    {\"sensor\": %zu, \"kind\": \"%s\", \"hard\": %s, "
        "\"severity\": %.3f, \"injected_t_s\": %.3f, "
        "\"quarantined_t_s\": %.3f, \"detection_epochs\": %lld, "
        "\"recovered_t_s\": %.3f}%s\n",
        o.event.sensor, fault_kind_label(o.event.kind),
        o.hard ? "true" : "false", o.event.severity, o.injected_t_s,
        o.quarantined_t_s, o.detection_epochs, o.recovered_t_s,
        k + 1 < outcomes.size() ? "," : "");
    out += buf;
  }
  out += "  ]\n}\n";
  return out;
}

}  // namespace aqua::fault
