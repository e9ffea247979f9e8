// Mode Supervision Unit: mode-dependent supervision binding + supervision
// of the mode machine itself.
//
// Two jobs, one unit (the CMU/RSU/ESU/CSU pattern recast for power modes):
//
//   1. *Binding.* Every bound runnable carries a base (Run-mode) fault
//      hypothesis. On each committed transition the unit rebinds the
//      hypothesis through the active policy's `[mode.<name>]` overlay:
//      HBM periods scale, tolerances relax, and — the new dimension — a
//      mode whose contract is silence disarms aliveness entirely and
//      inverts the arrival check into a silence guard (max_arrivals =
//      silent_max_arrivals), so a heartbeat *during* deep sleep is the
//      error. Rebinds start fresh periods, so a legitimate switch
//      mid-window never raises a false alarm. Check rules gate on the
//      overlay's checks_enabled. The applied overlay is hash-latched
//      (policy::overlay_hash24) for diagnostic verification.
//
//   2. *Supervision.* The mode machine is itself a supervised entity
//      (virtual runnable id 2300): overstayed dwell (stuck-in-sleep,
//      wake-storm overrun, flash-write overrun), hung transitions
//      (granted but never committed past the overlay's deadline),
//      repeated refusals (sleep-refusal) and heartbeats during contracted
//      silence all report ErrorType::kPowerMode through the watchdog's
//      external-error path, so TSI thresholds and FMF treatment apply
//      unchanged.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "mode/power_mode.hpp"
#include "policy/check_engine.hpp"
#include "policy/policy.hpp"
#include "wdg/watchdog.hpp"

namespace easis::mode {

/// Virtual-runnable id range of the mode unit (2000s = RSU, 2100s = ESU,
/// 2200s = check rules, 2300s = mode supervision).
inline constexpr std::uint64_t kModeRunnableBase = 2300;

/// ModeSupervisionUnit tunables (namespace scope: a nested struct's
/// default member initializers could not feed the constructor's `= {}`
/// default).
struct ModeSupervisionConfig {
  /// Consecutive refused requests before the machine counts as
  /// sleep-refusing (reported once per further refusal).
  std::uint32_t refusal_limit = 3;
};

class ModeSupervisionUnit {
 public:
  using Config = ModeSupervisionConfig;

  /// Faults are accounted to (task, application) like the CSU rules.
  ModeSupervisionUnit(PowerModeManager& manager,
                      wdg::SoftwareWatchdog& watchdog, TaskId task,
                      ApplicationId application, Config config = {});

  /// Installs/replaces the active policy and re-applies the current
  /// mode's overlay immediately (runtime PolicySet switching).
  void set_policy(std::shared_ptr<const policy::PolicySet> policy,
                  sim::SimTime now);

  /// Binds a runnable: `base` is its Run-mode hypothesis (the runnable
  /// must already be registered with the watchdog).
  void bind(const wdg::RunnableMonitor& base);

  /// Check rules gated by the overlay's checks_enabled flag.
  void attach_check_unit(policy::CheckSupervisionUnit* unit) {
    check_unit_ = unit;
  }

  /// Periodic supervision; call every watchdog check period.
  void cycle(sim::SimTime now);

  // --- introspection -------------------------------------------------------
  [[nodiscard]] RunnableId runnable() const { return runnable_; }
  /// Overlay hash latched at the last binding (0 = base policy, no
  /// overlay declared for the current mode).
  [[nodiscard]] std::uint32_t active_overlay_hash24() const {
    return overlay_hash24_;
  }
  /// True while the current mode contracts silence (aliveness disarmed).
  [[nodiscard]] bool silence_contracted() const {
    return silence_contracted_;
  }
  [[nodiscard]] std::uint64_t errors_reported() const { return errors_; }
  [[nodiscard]] std::uint64_t rebinds() const { return rebinds_; }
  [[nodiscard]] std::size_t bound_count() const { return bindings_.size(); }

 private:
  PowerModeManager& manager_;
  wdg::SoftwareWatchdog& watchdog_;
  Config config_;
  RunnableId runnable_;
  std::shared_ptr<const policy::PolicySet> policy_;
  /// overlay_hash24 of each of policy_->modes, in order: derived once per
  /// policy instead of re-serialising an overlay on every rebind.
  std::vector<std::uint32_t> overlay_hashes_;
  std::vector<wdg::RunnableMonitor> bindings_;
  policy::CheckSupervisionUnit* check_unit_ = nullptr;
  std::uint32_t overlay_hash24_ = 0;
  bool silence_contracted_ = false;
  double applied_deadline_scale_ = 1.0;
  std::uint64_t errors_ = 0;
  std::uint64_t rebinds_ = 0;
  std::uint32_t refusals_reported_ = 0;
  bool reentrant_ = false;

  [[nodiscard]] const policy::ModeOverlay* overlay_of(PowerMode mode) const;
  void apply(PowerMode mode, sim::SimTime now);
  void rebind_one(const wdg::RunnableMonitor& base,
                  const policy::ModeOverlay* overlay);
  void report(sim::SimTime now, std::string detail);
  void on_watchdog_error(const wdg::ErrorReport& error);
};

}  // namespace easis::mode
