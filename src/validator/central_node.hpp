// Central node of the EASIS architecture validator (paper §4.2).
//
// The substitute for the dSPACE AutoBox: hosts the SafeSpeed safety
// application (and optionally SafeLane, LightControl and CrashDetection)
// on the shared NodePlatform (Software Watchdog service, Fault Management
// Framework, diagnostics, reset/boot), plus the HW-watchdog
// self-supervision, resource and environment supervision, and the
// environment simulation (vehicle dynamics + lane geometry) closing the
// loop.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "apps/crash_detection.hpp"
#include "apps/lightctl.hpp"
#include "apps/safelane.hpp"
#include "apps/safespeed.hpp"
#include "os/schedule_table.hpp"
#include "sim/lane.hpp"
#include "sim/thermal.hpp"
#include "sim/vehicle.hpp"
#include "validator/node_platform.hpp"
#include "wdg/env_monitor.hpp"
#include "wdg/resource_monitor.hpp"
#include "wdg/self_supervision.hpp"

namespace easis::validator {

/// The inherited `policy` also binds what the flat config members cannot
/// express: per-role FMF treatment (SafeSpeed -> safety, SafeLane ->
/// assist, LightControl and CrashDetection -> qm), the HBM period
/// scale/tolerances and the deadline window scale; its check rules are
/// registered by attach_check_supervision(). Use validator::apply_policy()
/// to also copy the config-level tunables (watchdog, fmf, thermal,
/// filesystem) — setting only `policy` binds the runtime knobs over
/// whatever config the caller assembled. The built-in baseline policy is a
/// behavioural no-op.
struct CentralNodeConfig : NodePlatformConfig {
  apps::SafeSpeedConfig safespeed;
  apps::SafeLaneConfig safelane;
  apps::LightControlConfig light;
  bool with_safelane = true;
  bool with_light_control = true;
  bool with_crash_detection = true;
  apps::CrashDetectionConfig crash;
  os::Priority crash_priority = 70;
  /// Bounds the DTC store (0 = unbounded).
  std::size_t dtc_capacity = 0;
  /// Additional SignalBus signals captured into every DTC freeze frame
  /// (e.g. the `res.<name>.level` signals the Resource Supervision Unit
  /// publishes, so resource DTCs carry the offending task's snapshot).
  std::vector<std::string> extra_frame_signals;
  /// Watchdog self-supervision: the SW watchdog services a windowed HW
  /// watchdog via challenge–response; expiry funnels into the FMF reset
  /// path with a ResetSource::kHardwareWatchdog cause.
  bool with_self_supervision = true;
  /// hw_timeout is raised to at least 5x the watchdog check period so
  /// sweeping the check period never causes spurious expirations.
  wdg::SelfSupervisionConfig self_supervision;
  /// Environment integration step (vehicle + lane models).
  sim::Duration environment_step = sim::Duration::millis(5);
  /// Thermal environment: junction-temperature model parameters. The model
  /// is stepped with the environment loop; its load input comes from the
  /// Resource Supervision Unit when attached (idle otherwise).
  sim::ThermalParams thermal;
  /// Limits of the node's ECU thermal channel (environment supervision).
  wdg::ThermalLimits thermal_limits;
  /// Limits of the node's fault-memory journal channel.
  wdg::FilesystemLimits filesystem_limits;
  /// HBM stretch factor applied to the aliveness/arrival hypotheses of the
  /// still-monitored runnables while the thermal ladder derates: a node
  /// slowed down by thermal stress must not look like dead runnables.
  std::uint32_t derate_hbm_stretch = 2;
  os::Priority safespeed_priority = 50;
  os::Priority safelane_priority = 40;
  os::Priority light_priority = 10;
  /// OSEKTime-style dispatching: application tasks are activated from a
  /// time-triggered schedule table instead of individual alarms (the
  /// watchdog service keeps its own alarm). The table round is the LCM of
  /// the application periods.
  bool time_triggered = false;
};

class CentralNode : private NodeConfigHolder<CentralNodeConfig>,
                    public NodePlatform {
 public:
  CentralNode(sim::Engine& engine, CentralNodeConfig config = {});

  /// Resets triggered by the hardware watchdog (self-supervision layer).
  [[nodiscard]] std::uint32_t hw_watchdog_resets() const {
    return hw_resets_;
  }

  /// Attaches a UDS-lite diagnostic server on `can`, backed by this node's
  /// DTC store, FMF, watchdog and environment supervision. A commanded
  /// ECUReset funnels through the FMF reset path; during the reboot
  /// blackout the server is offline (requests are dropped, exactly like
  /// the rest of the node). The bus must outlive the node. Returns the
  /// server for DID registration.
  diag::DiagServer& attach_diag(bus::CanBus& can,
                                diag::DiagServerConfig config = {});

  /// Attaches the Resource Supervision Unit over this node's kernel and
  /// signal bus. Call before start(), then register resources on the
  /// returned unit; its cycle runs every watchdog check period and is
  /// suspended during reboot blackouts exactly like the environment loop.
  wdg::ResourceSupervisionUnit& attach_resource_supervision();

  /// Attaches the Environment Supervision Unit with the node's default
  /// wiring: one thermal channel over the junction-temperature model and —
  /// when NVM fault memory is enabled — one filesystem channel over the
  /// NvmStore. The graceful-derating ladder actuates through the node:
  /// derate parks the QM applications and stretches the HBM hypotheses;
  /// shutdown funnels into the FMF's persistent safe state with a
  /// ResetSource::kThermalShutdown cause. Call before start(); its cycle
  /// runs every watchdog check period like the RSU's.
  wdg::EnvironmentSupervisionUnit& attach_environment_supervision();

  /// Attaches the Check Supervision Unit and registers every `check` rule
  /// of the attached policy as a supervised virtual runnable (implies
  /// attach_process_supervision() — a hung check evaluation transgresses
  /// its deadline window). Returns null when no policy is attached or the
  /// policy defines no checks. Call before start(); evaluation cycles run
  /// every watchdog check period like the ESU/PSU.
  policy::CheckSupervisionUnit* attach_check_supervision();

  // --- accessors --------------------------------------------------------------
  /// Non-null when self-supervision is enabled.
  [[nodiscard]] wdg::WatchdogSelfSupervision* self_supervision() {
    return self_supervision_.get();
  }
  /// Non-null after attach_resource_supervision().
  [[nodiscard]] wdg::ResourceSupervisionUnit* resource_supervision() {
    return rsu_.get();
  }
  /// Non-null after attach_environment_supervision().
  [[nodiscard]] wdg::EnvironmentSupervisionUnit* environment_supervision() {
    return esu_.get();
  }
  [[nodiscard]] sim::ThermalModel& thermal_model() { return thermal_model_; }
  [[nodiscard]] apps::SafeSpeed& safespeed() { return *safespeed_; }
  [[nodiscard]] apps::SafeLane* safelane() { return safelane_.get(); }
  [[nodiscard]] apps::LightControl* light_control() { return light_.get(); }
  [[nodiscard]] apps::CrashDetection* crash_detection() {
    return crash_.get();
  }
  [[nodiscard]] sim::VehicleModel& vehicle() { return vehicle_; }
  [[nodiscard]] sim::LaneModel& lane() { return lane_; }

  [[nodiscard]] TaskId safespeed_task() const { return safespeed_task_; }
  [[nodiscard]] AlarmId safespeed_alarm() const { return safespeed_alarm_; }
  [[nodiscard]] std::uint64_t safespeed_period_ticks() const {
    return safespeed_ticks_;
  }
  [[nodiscard]] TaskId safelane_task() const { return safelane_task_; }
  [[nodiscard]] TaskId light_task() const { return light_task_; }
  [[nodiscard]] AlarmId safelane_alarm() const { return safelane_alarm_; }
  [[nodiscard]] std::uint64_t safelane_period_ticks() const {
    return safelane_ticks_;
  }
  [[nodiscard]] const CentralNodeConfig& config() const { return config_; }
  /// Non-null only in time-triggered mode.
  [[nodiscard]] os::ScheduleTable* schedule_table() {
    return schedule_table_.get();
  }

 private:
  sim::VehicleModel vehicle_;
  sim::LaneModel lane_;

  TaskId safespeed_task_;
  AlarmId safespeed_alarm_;
  std::uint64_t safespeed_ticks_ = 0;
  TaskId safelane_task_;
  AlarmId safelane_alarm_;
  std::uint64_t safelane_ticks_ = 0;
  TaskId light_task_;
  AlarmId light_alarm_;
  std::uint64_t light_ticks_ = 0;

  std::unique_ptr<apps::SafeSpeed> safespeed_;
  std::unique_ptr<apps::SafeLane> safelane_;
  std::unique_ptr<apps::LightControl> light_;
  std::unique_ptr<apps::CrashDetection> crash_;
  std::unique_ptr<wdg::WatchdogSelfSupervision> self_supervision_;
  std::unique_ptr<os::ScheduleTable> schedule_table_;
  std::unique_ptr<wdg::ResourceSupervisionUnit> rsu_;
  std::unique_ptr<wdg::EnvironmentSupervisionUnit> esu_;
  sim::ThermalModel thermal_model_;
  /// Pre-derate HBM hypotheses, restored when the ladder steps back down.
  std::vector<std::pair<RunnableId, wdg::RunnableMonitor>> stretched_;
  bool derated_ = false;
  std::uint32_t hw_resets_ = 0;

  void arm_alarms();
  void apply_policy_bindings();
  /// Where ESU channel faults and check evaluations are accounted: to a QM
  /// application when present (its FMF policy carries the sensor-fault
  /// treatment), to the safety application on a stripped-down node.
  [[nodiscard]] std::pair<TaskId, ApplicationId> monitor_account() const;
  void on_hw_watchdog_expired(sim::SimTime now);
  void step_environment();
  void enter_thermal_derate(sim::SimTime now);
  void exit_thermal_derate(sim::SimTime now);
  /// Disables the QM assist applications (SafeLane, light control, crash
  /// detection) and their heartbeat monitoring; reversible.
  void park_qm_applications();

  // --- NodePlatform hooks: alarms, HW watchdog, environment and unit
  // cycles; SafeSpeed limp-home with the QM applications parked; the HW
  // watchdog stops before the kernel goes down.
  void boot_node() override;
  sim::Duration nominal_period_of(RunnableId id) override;
  void enter_safe_state() override;
  void before_reset() override;
};

}  // namespace easis::validator
