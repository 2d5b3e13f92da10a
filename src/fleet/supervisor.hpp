// supervisor.hpp — the fleet supervision layer: a per-sensor health state
// machine on top of FleetEngine. The paper's network vision (§6) only works
// if a sensor that starts lying is taken *out* of the leak computation and,
// where physics allows, put back in: a browned-out rail recovers after a
// reboot; a broken membrane never does. The supervisor encodes exactly that
// operational loop:
//
//   healthy ──(faulty streak / hard fault)──► suspect ──► quarantined
//      ▲                                                     │ backoff
//      │            probation (clean streak)                 ▼ (capped exp.)
//      └───────────────◄────────────────────────── re-commission attempt
//                                                  (reboot + self-test +
//                                                   zero-flow settle)
//   quarantined ──(attempts exhausted)──► failed (permanent)
//
// Determinism contract: step() derives the epoch's due re-commissions from
// supervisor state alone and hands them to FleetEngine::step_epoch, which runs
// each inside the fan-out right after its sensor's own advance; a
// re-commission touches only its own node and reads the frozen network
// solution. The poll bookkeeping then runs serially on the caller's thread
// and draws no randomness, so a fault campaign supervised by this class is
// bit-reproducible at any thread count.
#pragma once

#include <cstddef>
#include <vector>

#include "core/health.hpp"
#include "fleet/fleet.hpp"
#include "util/thread_pool.hpp"
#include "util/units.hpp"

namespace aqua::fleet {

enum class NodeHealthState : std::uint8_t {
  kHealthy = 0,      ///< in service, estimates valid
  kSuspect = 1,      ///< soft faults accumulating, still in service
  kQuarantined = 2,  ///< out of service, waiting out the re-commission backoff
  kProbation = 3,    ///< re-commissioned, must stay clean to re-enter service
  kFailed = 4,       ///< re-commission attempts exhausted — permanent
};

[[nodiscard]] const char* node_health_state_name(NodeHealthState state);

struct SupervisorConfig {
  cta::HealthConfig health{};
  /// Consecutive faulty epochs before a soft fault quarantines the node
  /// (hard faults — membrane, package, watchdog — quarantine immediately).
  int suspect_epochs = 3;
  /// Consecutive clean epochs on probation before the node re-enters service.
  int probation_epochs = 4;
  /// Re-commission backoff, in epochs: starts at `backoff_initial_epochs`,
  /// doubles per failed attempt, saturates at `backoff_max_epochs`.
  int backoff_initial_epochs = 2;
  int backoff_max_epochs = 16;
  /// Re-commission attempts before the node is declared permanently failed.
  int max_recommission_attempts = 4;
  /// Zero-flow settle per re-commission attempt (simulation seconds). An
  /// attempt whose channel self-test fails keeps the node quarantined and
  /// doubles its backoff.
  util::Seconds recommission_settle{1.0};
};

/// Per-node supervision record (read-only view for reports and tests).
struct NodeSupervision {
  NodeHealthState state = NodeHealthState::kHealthy;
  int faulty_streak = 0;  ///< consecutive faulty polls in healthy/suspect
  int clean_streak = 0;   ///< consecutive clean polls on probation
  int backoff_remaining = 0;
  int backoff_next = 0;  ///< epochs the *next* failed attempt will wait
  int recommission_attempts = 0;
  int quarantine_entries = 0;  ///< flap metric: times quarantine was entered
  int recoveries = 0;          ///< probation → healthy transitions
  long long first_fault_epoch = -1;  ///< poll index of the streak's first fault
  long long quarantined_epoch = -1;  ///< poll index of the latest quarantine
  double quarantined_t_s = -1.0;     ///< sim time of the latest quarantine
  double recovered_t_s = -1.0;       ///< sim time of the latest recovery
  std::vector<cta::FaultCode> last_faults;  ///< from the latest faulty poll
};

/// Counters aggregated over the whole fleet since construction.
struct SupervisorStats {
  long long quarantines = 0;
  long long recoveries = 0;
  long long failures = 0;
  long long recommission_attempts = 0;
  long long self_test_failures = 0;
};

class FleetSupervisor {
 public:
  /// The supervisor keeps a reference to the engine: it steps it, polls node
  /// traces, flips estimate-validity flags and schedules re-commissions.
  explicit FleetSupervisor(FleetEngine& engine,
                           const SupervisorConfig& config = {});

  FleetSupervisor(const FleetSupervisor&) = delete;
  FleetSupervisor& operator=(const FleetSupervisor&) = delete;

  /// One supervised epoch, in place of FleetEngine::step_epoch: selects the
  /// quarantined nodes whose backoff ends at this epoch (and that have
  /// attempts left), steps the engine with them as its due re-commissions
  /// (parallel across `pool` if given), then assesses every node's latest
  /// sample through its HealthMonitor and advances the state machines
  /// serially, reading each re-commission's outcome from last_self_test().
  void step(util::ThreadPool* pool = nullptr);

  [[nodiscard]] const NodeSupervision& supervision(std::size_t i) const {
    return nodes_[i];
  }
  [[nodiscard]] NodeHealthState state(std::size_t i) const {
    return nodes_[i].state;
  }
  [[nodiscard]] const SupervisorStats& stats() const { return stats_; }
  [[nodiscard]] long long polls() const { return polls_; }

  [[nodiscard]] std::size_t count_in(NodeHealthState state) const;
  /// Sensors currently contributing valid estimates (healthy or suspect).
  [[nodiscard]] std::size_t in_service_count() const;

  /// Checkpoint support: every per-node state machine (including backoff
  /// counters and streaks), every HealthMonitor history, the aggregate stats
  /// and the poll counter. Restore targets a supervisor freshly constructed
  /// on the restored engine with the identical config.
  void save_state(state::Writer& w) const;
  void load_state(state::Reader& r);

 private:
  /// The bookkeeping half of step(), after the engine's epoch.
  void poll();
  void enter_quarantine(std::size_t i, NodeSupervision& sup);
  void attempt_recommission(std::size_t i, NodeSupervision& sup);

  FleetEngine& engine_;
  SupervisorConfig config_;
  std::vector<NodeSupervision> nodes_;
  std::vector<cta::HealthMonitor> monitors_;
  SupervisorStats stats_;
  long long polls_ = 0;
};

}  // namespace aqua::fleet
