// Duty-cycled sensor node hosting the RailMon workload (power-mode
// subsystem validator).
//
// Assembles the full dependability stack around a node that is *silent by
// contract* for most of its life: the PowerModeManager's declared duty
// cycle (Run -> FlashWrite -> Sleep -> WakeBurst -> Run), the
// ModeSupervisionUnit binding each mode's `[mode.<name>]` policy overlay
// onto the sensing chain's fault hypotheses, the watchdog service, FMF +
// DTC + NVM fault memory (the active power mode is persisted and
// re-seeded across resets), and a UDS-lite server exposing the active
// mode (DID 0x010F) and the hash of the bound overlay (DID 0x0110).
//
// Mode-dependent task scheduling is the node's job: on Sleep entry the
// sensing task's alarm is cancelled (heartbeats stop by contract), on
// WakeBurst it is re-armed at burst rate (the wake storm), everywhere
// else at the nominal sample period. FlashWrite entry commits the
// sample journal and persists the fault memory inside the declared
// flash window.
#pragma once

#include <memory>
#include <string>

#include "apps/railmon.hpp"
#include "diag/server.hpp"
#include "fmf/fmf.hpp"
#include "fmf/nvm.hpp"
#include "mode/power_mode.hpp"
#include "mode/supervision.hpp"
#include "policy/check_engine.hpp"
#include "policy/policy.hpp"
#include "rte/ecu.hpp"
#include "sim/engine.hpp"
#include "wdg/process_supervisor.hpp"
#include "wdg/service.hpp"
#include "wdg/watchdog.hpp"

namespace easis::validator {

struct RailMonNodeConfig {
  wdg::WatchdogConfig watchdog;
  wdg::ServiceConfig watchdog_service;
  apps::RailMonConfig railmon;
  mode::PowerModeManager::Config mode;
  mode::ModeSupervisionUnit::Config mode_supervision;
  bool with_fmf = true;
  fmf::FmfConfig fmf;
  bool with_nvm = true;
  std::size_t nvm_capacity = 8192;
  /// Shared NVM block (power-cycle tests construct a second node over the
  /// same store). When set, the node does not own an NvmStore.
  fmf::NvmStore* external_nvm = nullptr;
  std::size_t dtc_capacity = 8;
  /// Reboot blackout of a software reset (zero = synchronous reboot).
  sim::Duration reboot_delay = sim::Duration::zero();
  /// Compiled dependability policy. Its `[mode.<name>]` overlays drive the
  /// mode-dependent supervision binding; its check rules (if any) are
  /// registered with a CheckSupervisionUnit gated by the overlays'
  /// checks_enabled; its safety-role treatment applies to RailMon.
  std::shared_ptr<const policy::PolicySet> policy;
  os::Priority control_priority = 50;
  os::Priority sensor_priority = 40;
};

class RailMonNode {
 public:
  RailMonNode(sim::Engine& engine, RailMonNodeConfig config = {});
  RailMonNode(const RailMonNode&) = delete;
  RailMonNode& operator=(const RailMonNode&) = delete;

  /// Boots the node: finalizes the RTE, starts the kernel, re-seeds the
  /// fault memory (and the persisted power mode) from NVM, arms the
  /// mode-dependent alarms and starts the supervision cycles.
  void start();

  /// Software reset: persists the fault memory (including the active
  /// power mode), tears the kernel down and boots again after the
  /// configured reboot delay. The NVM-persisted mode is re-seeded at
  /// boot — a node that reset while asleep wakes up *in* Sleep, with the
  /// silence contract re-armed, not in Run.
  void software_reset();

  /// Attaches the UDS-lite diagnostic server, wiring the power-mode
  /// identifiers (kDidPowerMode, kDidModeOverlayHash) next to the
  /// standard watchdog/FMF/policy set.
  diag::DiagServer& attach_diag(bus::CanBus& can,
                                diag::DiagServerConfig config = {});

  // --- accessors -------------------------------------------------------------
  [[nodiscard]] os::Kernel& kernel() { return ecu_.kernel(); }
  [[nodiscard]] rte::Rte& rte() { return ecu_.rte(); }
  [[nodiscard]] rte::SignalBus& signals() { return ecu_.signals(); }
  [[nodiscard]] wdg::SoftwareWatchdog& watchdog() { return watchdog_; }
  [[nodiscard]] mode::PowerModeManager& mode_manager() { return *manager_; }
  [[nodiscard]] mode::ModeSupervisionUnit& mode_unit() { return *mode_unit_; }
  [[nodiscard]] apps::RailMon& railmon() { return *railmon_; }
  [[nodiscard]] fmf::FaultManagementFramework* fault_management() {
    return fmf_.get();
  }
  [[nodiscard]] fmf::DtcStore* dtc_store() { return dtc_.get(); }
  [[nodiscard]] fmf::NvmStore* nvm() { return nvm_; }
  [[nodiscard]] policy::CheckSupervisionUnit* check_unit() {
    return csu_.get();
  }
  [[nodiscard]] TaskId control_task() const { return control_task_; }
  [[nodiscard]] TaskId sensor_task() const { return sensor_task_; }
  [[nodiscard]] std::uint32_t resets() const { return resets_; }
  [[nodiscard]] bool rebooting() const { return rebooting_; }
  [[nodiscard]] bool safe_state() const { return safe_state_; }
  [[nodiscard]] const RailMonNodeConfig& config() const { return config_; }

 private:
  sim::Engine& engine_;
  RailMonNodeConfig config_;
  rte::Ecu ecu_;
  wdg::SoftwareWatchdog watchdog_;
  CounterId counter_;
  TaskId control_task_;
  TaskId sensor_task_;
  AlarmId control_alarm_;
  AlarmId sensor_alarm_;
  std::uint64_t control_ticks_ = 0;
  std::uint64_t sample_ticks_ = 0;
  std::uint64_t burst_ticks_ = 0;
  std::unique_ptr<mode::PowerModeManager> manager_;
  std::unique_ptr<apps::RailMon> railmon_;
  std::unique_ptr<mode::ModeSupervisionUnit> mode_unit_;
  std::unique_ptr<wdg::WatchdogService> service_;
  std::unique_ptr<wdg::ProcessSupervisionUnit> psu_;
  std::unique_ptr<policy::CheckSupervisionUnit> csu_;
  std::unique_ptr<fmf::FaultManagementFramework> fmf_;
  std::unique_ptr<fmf::DtcStore> dtc_;
  std::unique_ptr<fmf::NvmStore> owned_nvm_;
  fmf::NvmStore* nvm_ = nullptr;
  std::unique_ptr<diag::DiagServer> diag_;
  bool started_once_ = false;
  bool rebooting_ = false;
  bool safe_state_ = false;
  std::uint32_t resets_ = 0;
  /// Consecutive power-mode error reports observed while a transition was
  /// still pending; at kHungModeResetThreshold the node escalates the hung
  /// two-phase commit to an ECU reset (re-seeded from NVM).
  std::uint32_t hung_mode_reports_ = 0;
  static constexpr std::uint32_t kHungModeResetThreshold = 5;
  /// This boot's supervision cycle and a pending delayed boot; both
  /// cancelled on software_reset().
  sim::TimerGroup timers_{engine_};

  /// Starts the kernel, the fault memory, the alarms and this boot's
  /// supervision cycle (first start and every reboot).
  void boot();
  void boot_after_reset();
  void arm_alarms();
  /// Applies the mode's activation contract to the sensing task's alarm:
  /// cancelled in Sleep, burst-rate in WakeBurst, nominal elsewhere.
  void apply_mode_scheduling(mode::PowerMode mode);
  void enter_safe_state(const fmf::ResetCause& cause);
};

}  // namespace easis::validator
