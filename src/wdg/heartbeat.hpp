// Heartbeat Monitoring Unit (paper §3.2.1).
//
// Passive recording of runnable heartbeats in per-runnable counters:
//   AC   - Aliveness Counter        (heartbeats this aliveness period)
//   ARC  - Arrival Rate Counter     (heartbeats this arrival-rate period)
//   CCA  - Cycle Counter Aliveness  (elapsed main-function cycles)
//   CCAR - Cycle Counter Arr. Rate  (elapsed main-function cycles)
//   AS   - Activation Status        (monitoring on/off per runnable)
// Counters are checked shortly before the period expires and reset when the
// period expires or an error was detected in the previous cycle.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "sim/time.hpp"
#include "util/ids.hpp"
#include "wdg/config.hpp"
#include "wdg/types.hpp"

namespace easis::wdg {

class HeartbeatMonitoringUnit {
 public:
  /// Called for each error found during a cycle check.
  using ErrorCallback =
      std::function<void(RunnableId, ErrorType, sim::SimTime)>;

  void add_runnable(const RunnableMonitor& config);
  [[nodiscard]] bool monitors(RunnableId id) const;

  /// Heartbeat indication from the RTE glue code.
  void indicate(RunnableId id);

  /// One watchdog main-function cycle: advance CCA/CCAR, check counters of
  /// expired periods, report errors, reset expired counters.
  void tick(sim::SimTime now, const ErrorCallback& on_error);

  /// Activation Status control.
  void set_activation_status(RunnableId id, bool active);
  [[nodiscard]] bool activation_status(RunnableId id) const;

  /// Dynamic reconfiguration of the fault hypothesis (paper outlook):
  /// replaces the monitoring parameters and restarts the periods.
  void update_hypothesis(RunnableId id, std::uint32_t aliveness_cycles,
                         std::uint32_t min_heartbeats,
                         std::uint32_t arrival_cycles,
                         std::uint32_t max_arrivals);

  /// Mode-dependent supervision binding: replaces the *entire* hypothesis
  /// — including which checks are armed — and restarts the periods with
  /// clean counters. Unlike update_hypothesis() this can flip aliveness
  /// supervision off for a power mode whose contract is silence and turn
  /// the arrival check into a silence guard (max_arrivals = 0).
  void rebind(const RunnableMonitor& config);

  /// Clears the dynamic counters of one runnable (after fault treatment).
  void reset_runnable(RunnableId id);
  /// Clears the dynamic counters of every runnable of `task`.
  void reset_task(TaskId task);
  /// Clears all dynamic state (ECU reset).
  void reset();

  // --- counter introspection (the paper's plotted signals) -----------------
  [[nodiscard]] std::uint32_t ac(RunnableId id) const;
  [[nodiscard]] std::uint32_t arc(RunnableId id) const;
  [[nodiscard]] std::uint32_t cca(RunnableId id) const;
  [[nodiscard]] std::uint32_t ccar(RunnableId id) const;
  [[nodiscard]] const RunnableMonitor& config(RunnableId id) const;
  /// Registration order.
  [[nodiscard]] const std::vector<RunnableId>& monitored_runnables() const {
    return order_;
  }

 private:
  struct State {
    RunnableMonitor config;
    bool active = true;
    std::uint32_t ac = 0;
    std::uint32_t arc = 0;
    std::uint32_t cca = 0;
    std::uint32_t ccar = 0;
  };

  std::unordered_map<RunnableId, State> states_;
  std::vector<RunnableId> order_;  // deterministic iteration order

  [[nodiscard]] State& state(RunnableId id);
  [[nodiscard]] const State& state(RunnableId id) const;
};

}  // namespace easis::wdg
