// Check Supervision Unit: user-defined policy check rules evaluated as
// supervised virtual runnables (watchdogd's script.c generic checker,
// recast onto the paper's unit architecture).
//
// watchdogd lets the operator plug arbitrary check scripts into the
// supervision loop; here the script is a declarative `[check "name"]`
// clause of the dependability policy — a signal predicate `min <= value
// <= max` evaluated every `period_cycles` watchdog cycles. Two failure
// modes are distinguished, exactly like a real external checker:
//
//   - the check *fails*: the signal is outside its band — reported as
//     ErrorType::kCheckRule through the watchdog's external-error path,
//     so the TSI thresholds and the FMF treatment chain apply unchanged;
//   - the check *hangs*: the evaluation never returns (set_stalled()
//     injection) — caught by the supervised-process deadline window that
//     wraps every evaluation, surfacing as ErrorType::kDeadline with a
//     persistent TransgressionRecord.
//
// Every rule is a virtual runnable (ids from kCheckRunnableBase), like the
// CMU/RSU/ESU channels.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "policy/policy.hpp"
#include "rte/signal_bus.hpp"
#include "wdg/process_supervisor.hpp"
#include "wdg/watchdog.hpp"

namespace easis::policy {

/// Virtual-runnable id range of the check engine (2000s = RSU,
/// 2100s = ESU, 2200s = check rules).
inline constexpr std::uint64_t kCheckRunnableBase = 2200;

class CheckSupervisionUnit {
 public:
  /// Faults are accounted to (task, application) like the ESU channels.
  CheckSupervisionUnit(wdg::SoftwareWatchdog& watchdog,
                       wdg::ProcessSupervisionUnit& psu, rte::SignalBus& bus,
                       TaskId task, ApplicationId application);

  /// Registers a rule: virtual runnable + deadline-supervised section.
  void add_rule(const CheckRule& rule);

  /// Periodic supervision; call every watchdog check period.
  void cycle(sim::SimTime now);

  /// Fault injection: a stalled rule's evaluation hangs — its deadline
  /// window stays open until the process-supervision cycle reports it.
  void set_stalled(std::string_view rule, bool stalled);

  /// Mode gating: while disabled (deep sleep, per the active ModeOverlay)
  /// no rule evaluates and no deadline window opens; rate-of-change
  /// history is dropped so the first evaluation after re-enable re-seeds
  /// instead of averaging the slope across the silent gap.
  void set_enabled(bool enabled);
  [[nodiscard]] bool enabled() const { return enabled_; }

  // --- introspection ------------------------------------------------------
  [[nodiscard]] std::size_t rule_count() const { return rules_.size(); }
  [[nodiscard]] std::uint64_t evaluations() const { return evaluations_; }
  [[nodiscard]] std::uint64_t failures() const { return failures_; }
  [[nodiscard]] std::uint64_t failures_of(std::string_view rule) const;
  [[nodiscard]] RunnableId runnable_of(std::string_view rule) const;

 private:
  struct RuleState {
    CheckRule rule;
    RunnableId id;
    std::size_t section = 0;
    std::uint64_t cycles = 0;
    std::uint64_t failures = 0;
    bool stalled = false;
    bool section_open = false;
    /// Previous sample for the rate-of-change predicate.
    bool has_prev = false;
    double prev_value = 0.0;
    sim::SimTime prev_time;
  };

  wdg::SoftwareWatchdog& watchdog_;
  wdg::ProcessSupervisionUnit& psu_;
  rte::SignalBus& bus_;
  TaskId task_;
  ApplicationId application_;
  std::vector<RuleState> rules_;
  std::uint64_t evaluations_ = 0;
  std::uint64_t failures_ = 0;
  bool enabled_ = true;

  void evaluate(RuleState& state, sim::SimTime now);
};

}  // namespace easis::policy
