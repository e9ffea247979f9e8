// The supervised-ECU skeleton every validator node shares (paper §3: the
// Software Watchdog is a platform service every ECU instantiates the same
// way). NodePlatform owns the ECU and its 1 ms system counter, the
// watchdog and its service task, FMF + DTC + NVM fault memory, process and
// check supervision, the diagnostic backend, and start / software reset /
// reboot. A node derives from it and supplies what differs through four
// hooks: boot_node(), nominal_period_of(), enter_safe_state() and
// before_reset(). Its constructor calls the build steps at the point its
// assembly order requires: task ids, watchdog listener order and
// virtual-runnable registration order follow from where they run.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "diag/server.hpp"
#include "fmf/fmf.hpp"
#include "fmf/nvm.hpp"
#include "policy/check_engine.hpp"
#include "policy/policy.hpp"
#include "rte/ecu.hpp"
#include "sim/engine.hpp"
#include "wdg/process_supervisor.hpp"
#include "wdg/service.hpp"
#include "wdg/watchdog.hpp"

namespace easis::validator {

/// Config shared by every supervised node; the node configs derive from it.
struct NodePlatformConfig {
  wdg::WatchdogConfig watchdog;
  wdg::ServiceConfig watchdog_service;
  bool with_fmf = true;
  fmf::FmfConfig fmf;
  /// Reset-safe fault memory: DTC store, reset counters and the reset
  /// cause are committed to the simulated NVM before every reset and
  /// re-seeded at the next boot (requires with_fmf).
  bool with_nvm = true;
  std::size_t nvm_capacity = 8192;
  /// Shared NVM block (e.g. a second node constructed over the same store
  /// to simulate a power cycle); the node then owns no NvmStore.
  fmf::NvmStore* external_nvm = nullptr;
  /// Reboot blackout of a software reset: the kernel goes down at once and
  /// boots again this much later (zero = synchronous reboot).
  sim::Duration reboot_delay = sim::Duration::zero();
  /// Compiled dependability policy (null = none): the platform registers
  /// its check rules and serves its hash/version; the node binds the rest.
  std::shared_ptr<const policy::PolicySet> policy;
};

/// Holds a node's config ahead of NodePlatform in the node's base list:
/// bases are constructed in declaration order, so the platform can keep a
/// reference to the shared part of the one config the node owns.
template <class Config>
struct NodeConfigHolder {
  Config config_;
};

class NodePlatform {
 public:
  NodePlatform(const NodePlatform&) = delete;
  NodePlatform& operator=(const NodePlatform&) = delete;
  virtual ~NodePlatform() = default;

  /// Boots the node: finalizes the RTE, runs the watchdog config check on
  /// the first start, starts the kernel, re-seeds the fault memory from
  /// NVM and runs boot_node(). Throws std::logic_error while running.
  void start();
  /// ECU software reset (the FMF's reset treatment): persists the fault
  /// memory, tears kernel and watchdog state down, cancels this boot's
  /// cycles and boots again, after the reboot delay if one is set.
  void software_reset();
  /// Attaches the supervised-process client API. Register sections before
  /// attaching diagnostics so their transgression identifiers are served;
  /// records persist through the FMF's fault memory across resets.
  wdg::ProcessSupervisionUnit& attach_process_supervision();

  // --- accessors -------------------------------------------------------------
  [[nodiscard]] sim::Engine& engine() { return engine_; }
  [[nodiscard]] rte::Ecu& ecu() { return ecu_; }
  [[nodiscard]] os::Kernel& kernel() { return ecu_.kernel(); }
  [[nodiscard]] rte::Rte& rte() { return ecu_.rte(); }
  [[nodiscard]] rte::SignalBus& signals() { return ecu_.signals(); }
  [[nodiscard]] wdg::SoftwareWatchdog& watchdog() { return watchdog_; }
  [[nodiscard]] wdg::WatchdogService& watchdog_service() { return *service_; }
  [[nodiscard]] CounterId system_counter() const { return counter_; }
  /// Non-null when the FMF is enabled, like dtc_store().
  [[nodiscard]] fmf::FaultManagementFramework* fault_management() {
    return fmf_.get();
  }
  [[nodiscard]] fmf::DtcStore* dtc_store() { return dtc_.get(); }
  /// Non-null when NVM-backed fault memory is enabled.
  [[nodiscard]] fmf::NvmStore* nvm() { return nvm_; }
  /// Non-null after attach_diag().
  [[nodiscard]] diag::DiagServer* diag_server() { return diag_.get(); }
  /// Non-null after attach_process_supervision().
  [[nodiscard]] wdg::ProcessSupervisionUnit* process_supervision() {
    return psu_.get();
  }
  /// Non-null once the policy's check rules are registered.
  [[nodiscard]] policy::CheckSupervisionUnit* check_supervision() {
    return csu_.get();
  }
  [[nodiscard]] std::uint32_t resets_performed() const { return resets_; }
  /// True while the node sits in the latched limp-home/safe state.
  [[nodiscard]] bool in_safe_state() const { return safe_state_; }
  /// True during the reboot blackout of a delayed software reset.
  [[nodiscard]] bool rebooting() const { return rebooting_; }

 protected:
  /// Builds the ECU `name` and its 1 ms system counter over the node's
  /// own `config` (see NodeConfigHolder).
  NodePlatform(sim::Engine& engine, std::string name,
               const NodePlatformConfig& config);

  /// The watchdog's OS service task (after the node's own tasks).
  void add_watchdog_service();
  /// FMF + DTC store (+ NVM) when enabled, subscribed to the watchdog.
  void build_fault_memory(std::vector<std::string> frame_signals,
                          std::size_t dtc_capacity);
  /// Registers the policy's check rules (implies process supervision),
  /// accounted to `task`/`app`; null when the policy has no checks.
  policy::CheckSupervisionUnit* supervise_checks(TaskId task,
                                                 ApplicationId app);
  /// The UDS-lite server over the common backend: commanded ECUReset
  /// through the FMF reset path, offline during the reboot blackout,
  /// policy hash/version. The bus must outlive the node.
  diag::DiagServer& open_diag(
      bus::CanBus& can, diag::DiagServerConfig config,
      const wdg::EnvironmentSupervisionUnit* environment = nullptr);
  /// Applies a policy role's FMF treatment to `app` (no-op without FMF).
  void bind_treatment(ApplicationId app, const policy::RoleTreatment& role);
  /// Latches the safe state once and runs the node's enter_safe_state().
  void latch_safe_state();
  /// One check-supervision then process-supervision cycle: evaluations
  /// run first so a window opened this cycle is not instantly overdue.
  void cycle_process_supervision(sim::SimTime now);
  /// A task period in ticks of the 1 ms system counter.
  [[nodiscard]] std::uint64_t period_ticks(sim::Duration period) const;

  sim::Engine& engine_;
  rte::Ecu ecu_;
  wdg::SoftwareWatchdog watchdog_;
  CounterId counter_;
  std::unique_ptr<wdg::WatchdogService> service_;
  std::unique_ptr<fmf::FaultManagementFramework> fmf_;
  fmf::NvmStore* nvm_ = nullptr;
  std::unique_ptr<wdg::ProcessSupervisionUnit> psu_;
  std::unique_ptr<policy::CheckSupervisionUnit> csu_;
  /// This boot's cycles and a pending delayed boot (cancelled on reset).
  sim::TimerGroup timers_{engine_};

 private:
  const NodePlatformConfig& platform_;
  std::unique_ptr<fmf::DtcStore> dtc_;
  std::unique_ptr<fmf::NvmStore> owned_nvm_;
  std::unique_ptr<diag::DiagServer> diag_;
  bool started_once_ = false;
  std::uint32_t resets_ = 0;
  bool safe_state_ = false;
  bool rebooting_ = false;

  void boot();
  void boot_after_reset();

  // --- node hooks ------------------------------------------------------------
  /// This boot's alarms and cycles, after the fault-memory re-seed.
  virtual void boot_node() = 0;
  /// Nominal activation period of a runnable (zero = sporadic/unknown).
  virtual sim::Duration nominal_period_of(RunnableId id) = 0;
  /// The node's limp-home configuration (runs once).
  virtual void enter_safe_state() = 0;
  /// Teardown before the kernel reset.
  virtual void before_reset() {}
};

}  // namespace easis::validator
