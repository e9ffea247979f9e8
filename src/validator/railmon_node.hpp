// Duty-cycled sensor node hosting the RailMon workload (power-mode
// subsystem validator).
//
// Assembles the full dependability stack around a node that is *silent by
// contract* for most of its life: the PowerModeManager's declared duty
// cycle (Run -> FlashWrite -> Sleep -> WakeBurst -> Run), the
// ModeSupervisionUnit binding each mode's `[mode.<name>]` policy overlay
// onto the sensing chain's fault hypotheses, and — on the shared
// NodePlatform — the watchdog service, FMF + DTC + NVM fault memory (the
// active power mode is persisted and re-seeded across resets), and a
// UDS-lite server exposing the active mode (DID 0x010F) and the hash of
// the bound overlay (DID 0x0110).
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
#include "mode/power_mode.hpp"
#include "mode/supervision.hpp"
#include "validator/node_platform.hpp"

namespace easis::validator {

/// The inherited `policy`'s `[mode.<name>]` overlays drive the
/// mode-dependent supervision binding; its check rules (if any) are
/// registered with a CheckSupervisionUnit gated by the overlays'
/// checks_enabled; its safety-role treatment applies to RailMon.
struct RailMonNodeConfig : NodePlatformConfig {
  apps::RailMonConfig railmon;
  mode::PowerModeManager::Config mode;
  mode::ModeSupervisionUnit::Config mode_supervision;
  std::size_t dtc_capacity = 8;
  os::Priority control_priority = 50;
  os::Priority sensor_priority = 40;
};

class RailMonNode : private NodeConfigHolder<RailMonNodeConfig>,
                    public NodePlatform {
 public:
  RailMonNode(sim::Engine& engine, RailMonNodeConfig config = {});

  /// Attaches the UDS-lite diagnostic server, wiring the power-mode
  /// identifiers (kDidPowerMode, kDidModeOverlayHash) next to the
  /// standard watchdog/FMF/policy set.
  diag::DiagServer& attach_diag(bus::CanBus& can,
                                diag::DiagServerConfig config = {});

  // --- accessors -------------------------------------------------------------
  [[nodiscard]] mode::PowerModeManager& mode_manager() { return *manager_; }
  [[nodiscard]] mode::ModeSupervisionUnit& mode_unit() { return *mode_unit_; }
  [[nodiscard]] apps::RailMon& railmon() { return *railmon_; }
  [[nodiscard]] TaskId control_task() const { return control_task_; }
  [[nodiscard]] TaskId sensor_task() const { return sensor_task_; }
  [[nodiscard]] const RailMonNodeConfig& config() const { return config_; }

 private:
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
  /// Consecutive power-mode error reports observed while a transition was
  /// still pending; at kHungModeResetThreshold the node escalates the hung
  /// two-phase commit to an ECU reset (re-seeded from NVM).
  std::uint32_t hung_mode_reports_ = 0;
  static constexpr std::uint32_t kHungModeResetThreshold = 5;

  void arm_alarms();
  /// Applies the mode's activation contract to the sensing task's alarm:
  /// cancelled in Sleep, burst-rate in WakeBurst, nominal elsewhere.
  void apply_mode_scheduling(mode::PowerMode mode);

  // --- NodePlatform hooks: a node that reset while asleep boots *into*
  // Sleep (the NVM re-seed restores the mode), silence contract re-armed;
  // the safe state holds the duty cycle and parks the sensing chain.
  void boot_node() override;
  sim::Duration nominal_period_of(RunnableId id) override;
  void enter_safe_state() override;
};

}  // namespace easis::validator
