// Software Watchdog service facade (paper §3.2, Figure 2).
//
// Integrates the three units:
//   - Heartbeat Monitoring Unit (aliveness + arrival rate counters)
//   - Program Flow Checking Unit (look-up table of permitted successors)
//   - Task State Indication Unit (error vectors -> task/app/ECU state)
// and implements the unit collaboration of Figure 6: aliveness errors whose
// root cause is a detected program flow error on the same task are
// accumulated and reported only once, so the TSI sees the true cause.
//
// Interfaces (paper §4.4):
//   1. indicate_aliveness()  - application glue code -> watchdog
//   2. error/state listeners - watchdog -> Fault Management Framework
#pragma once

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "wdg/config.hpp"
#include "wdg/deadline.hpp"
#include "wdg/heartbeat.hpp"
#include "wdg/pfc.hpp"
#include "wdg/recovery.hpp"
#include "wdg/tsi.hpp"
#include "wdg/types.hpp"

namespace easis::wdg {

class SoftwareWatchdog {
 public:
  using ErrorListener = std::function<void(const ErrorReport&)>;
  using TaskStateListener =
      std::function<void(TaskId, Health, sim::SimTime)>;
  using ApplicationStateListener =
      std::function<void(ApplicationId, Health, sim::SimTime)>;
  using EcuStateListener = std::function<void(Health, sim::SimTime)>;

  explicit SoftwareWatchdog(WatchdogConfig config);
  // The TSI state fan-outs capture `this`.
  SoftwareWatchdog(const SoftwareWatchdog&) = delete;
  SoftwareWatchdog& operator=(const SoftwareWatchdog&) = delete;

  // --- configuration (fault hypothesis) --------------------------------------
  void add_runnable(const RunnableMonitor& monitor);
  /// Registers a virtual runnable: an auxiliary unit's channel (network
  /// signal, resource, environment channel, mode machine, check rule). It
  /// never executes, so no heartbeat/flow check is armed; it exists so the
  /// TSI keeps an error-indication vector for it and the FMF treats its
  /// faults exactly like task faults.
  void add_virtual_runnable(RunnableId runnable, TaskId task,
                            ApplicationId application, std::string name);
  [[nodiscard]] bool is_virtual(RunnableId runnable) const {
    return virtual_runnables_.contains(runnable);
  }
  void add_flow_edge(RunnableId pred, RunnableId succ);
  void add_flow_entry_point(RunnableId runnable);
  /// Deadline supervision (extension): the elapsed time between the start
  /// and end checkpoint runnables must lie within [min, max]. Both
  /// runnables must already be monitored. Returns the pair index.
  std::size_t add_deadline_pair(DeadlinePair pair);
  [[nodiscard]] const WatchdogConfig& config() const { return config_; }

  // --- runtime interface 1: aliveness indication (glue code) ------------------
  void indicate_aliveness(RunnableId runnable, TaskId task, sim::SimTime now);

  /// Periodic main function; call every config().check_period.
  void main_function(sim::SimTime now);

  /// Job boundary notification (task terminated) for the PFC context.
  void notify_task_terminated(TaskId task);

  /// Entry point for auxiliary monitoring units (e.g. the communication
  /// monitoring unit): routes an externally detected error through the
  /// same listener + TSI path as the watchdog's own detections, so network
  /// faults drive identical FMF treatment. For a registered runnable the
  /// report's task and application are taken from its registration; the
  /// report of an unregistered runnable passes through unchanged, and the
  /// TSI ignores it.
  void report_external_error(ErrorReport report);

  // --- runtime interface 2: reporting to the FMF -------------------------------
  void add_error_listener(ErrorListener listener);
  void add_task_state_listener(TaskStateListener listener);
  void add_application_state_listener(ApplicationStateListener listener);
  void add_ecu_state_listener(EcuStateListener listener);

  // --- fault-treatment hooks -----------------------------------------------------
  void set_activation_status(RunnableId runnable, bool active);
  [[nodiscard]] bool activation_status(RunnableId runnable) const;
  /// Sets the activation status of every heartbeat-supervised registration
  /// of `app`; virtual runnables keep theirs. Parking, terminating and
  /// shedding an application go through here; (re)activation starts fresh
  /// monitoring periods.
  void set_application_active(ApplicationId app, bool active);
  /// Dynamic reconfiguration (paper outlook): adapts the fault hypothesis
  /// of a monitored runnable, e.g. after switching an application into a
  /// degraded mode with relaxed timing.
  void update_hypothesis(RunnableId runnable, std::uint32_t aliveness_cycles,
                         std::uint32_t min_heartbeats,
                         std::uint32_t arrival_cycles,
                         std::uint32_t max_arrivals);
  /// Mode-dependent supervision binding: replaces the runnable's entire
  /// monitoring hypothesis — armed checks included — with clean counters
  /// (the per-power-mode binding path; see update_hypothesis for the
  /// parameter-only variant). The runnable must already be registered.
  void rebind_hypothesis(const RunnableMonitor& monitor);
  /// After an application restart: clear its runnables' counters and the
  /// error vectors of its tasks.
  void clear_task_state(TaskId task, sim::SimTime now);
  void reset_runnable(RunnableId runnable);
  /// ECU software reset: clears all dynamic state, keeps configuration.
  void reset(sim::SimTime now);

  // --- introspection (ControlDesk-style tracing) -----------------------------------
  [[nodiscard]] const HeartbeatMonitoringUnit& heartbeat_unit() const {
    return hbm_;
  }
  [[nodiscard]] const ProgramFlowCheckingUnit& pfc_unit() const { return pfc_; }
  [[nodiscard]] const DeadlineSupervisionUnit& deadline_unit() const {
    return deadline_;
  }
  [[nodiscard]] const TaskStateIndicationUnit& tsi_unit() const { return tsi_; }
  /// Post-reset recovery validation: warm-up windows opened here receive
  /// the watchdog's heartbeat indications, detected errors and cycle ticks.
  [[nodiscard]] RecoverySupervisionUnit& recovery_unit() { return recovery_; }
  [[nodiscard]] const RecoverySupervisionUnit& recovery_unit() const {
    return recovery_;
  }
  [[nodiscard]] Health task_health(TaskId task) const {
    return tsi_.task_health(task);
  }
  [[nodiscard]] Health application_health(ApplicationId app) const {
    return tsi_.application_health(app);
  }
  [[nodiscard]] Health ecu_health() const { return tsi_.ecu_health(); }
  [[nodiscard]] std::uint64_t cycles_run() const { return cycles_; }
  [[nodiscard]] std::uint64_t errors_reported() const { return errors_; }
  /// Default (baseline-policy) escalation mapping.
  [[nodiscard]] static Severity severity_of(ErrorType type);
  /// This instance's escalation mapping (config().severities); the FMF
  /// classifies detected errors through it so a policy can re-map classes.
  [[nodiscard]] Severity severity(ErrorType type) const;
  /// Policy hook: scales every deadline pair's permitted window (min
  /// divided, max multiplied by `factor`) — a >1 factor relaxes deadline
  /// supervision, a <1 factor tightens it.
  void scale_deadline_windows(double factor);
  /// Dumps the supervision reports of all monitored runnables plus the
  /// derived task/ECU states as an aligned text table (diagnostics).
  void write_supervision_reports(std::ostream& out) const;

 private:
  WatchdogConfig config_;
  HeartbeatMonitoringUnit hbm_;
  ProgramFlowCheckingUnit pfc_;
  DeadlineSupervisionUnit deadline_;
  TaskStateIndicationUnit tsi_;
  RecoverySupervisionUnit recovery_;

  std::unordered_set<RunnableId> virtual_runnables_;
  // Collaboration state (Figure 6): per task, the main-function cycle of
  // the most recent program flow error. Aliveness errors on such a task
  // are attributed to the flow fault (accumulated, reported once) — but
  // only while the episode is fresh: a mask without a recent flow error
  // would silently hide a genuinely starved task forever.
  std::unordered_map<TaskId, std::uint64_t> last_flow_error_cycle_;
  std::unordered_set<TaskId> accumulated_reported_;

  std::vector<ErrorListener> error_listeners_;
  std::vector<TaskStateListener> task_state_listeners_;
  std::vector<ApplicationStateListener> app_state_listeners_;
  std::vector<EcuStateListener> ecu_state_listeners_;
  std::uint64_t cycles_ = 0;
  std::uint64_t errors_ = 0;

  void handle_hbm_error(RunnableId runnable, ErrorType type, sim::SimTime now);
  void handle_pfc_error(RunnableId runnable, RunnableId predecessor,
                        TaskId task, sim::SimTime now);
  void handle_deadline_error(std::size_t pair_index, sim::Duration measured,
                             sim::SimTime now);
  void emit(ErrorReport report);
};

}  // namespace easis::wdg
