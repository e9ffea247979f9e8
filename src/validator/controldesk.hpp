// ControlDesk substitute (paper §4.5): periodic sampling of watchdog
// counters and platform signals into a TraceRecorder, so the bench
// binaries can reproduce the paper's plotted diagrams (x axis with a
// 10 ms scalar; y axis counter values and detected-error counts).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "diag/health_master.hpp"
#include "mode/power_mode.hpp"
#include "mode/supervision.hpp"
#include "sim/engine.hpp"
#include "telemetry/event_bus.hpp"
#include "util/ids.hpp"
#include "util/trace.hpp"
#include "wdg/env_monitor.hpp"
#include "wdg/process_supervisor.hpp"
#include "wdg/watchdog.hpp"

namespace easis::validator {

class ControlDesk {
 public:
  ControlDesk(sim::Engine& engine, util::TraceRecorder& recorder,
              sim::Duration sample_period = sim::Duration::millis(10));

  /// Adds an arbitrary probe sampled every period.
  void watch(std::string signal, std::function<double()> probe);

  /// Adds the paper's standard plot set for one monitored runnable:
  /// "<prefix>.AC", "<prefix>.CCA", "<prefix>.ARC", "<prefix>.CCAR",
  /// "<prefix>.AM Result", "<prefix>.ARM Result", "<prefix>.PFC Result".
  void watch_runnable(const wdg::SoftwareWatchdog& watchdog,
                      RunnableId runnable, const std::string& prefix);

  /// Event-sourced probes: subscribes a counting sink to `bus` and samples
  /// three cumulative signals every period — "<prefix>.events" (all
  /// events), "<prefix>.detections" (detection kinds), and
  /// "<prefix>.treatments" (treatment kinds). The plotted curves show
  /// *when* the detection chain progressed, on the same time axis as the
  /// watchdog counter plots. The bus must outlive the ControlDesk.
  void watch_event_bus(telemetry::EventBus& bus, const std::string& prefix);

  /// Fleet-health probes from a HealthMonitorMaster: "<prefix>.silent"
  /// (nodes currently silent), "<prefix>.cycles" (poll cycles run), and
  /// per registered ECU "<prefix>.<ecu>.alive" / "<prefix>.<ecu>.dtc" /
  /// "<prefix>.<ecu>.health". Register the fleet before calling; the
  /// master must outlive the ControlDesk.
  void watch_health_master(const diag::HealthMonitorMaster& master,
                           const std::string& prefix);

  /// Environmental-supervision probes: "<prefix>.temp_c" (primary sensor
  /// reading), "<prefix>.stage" (derating ladder stage 0..3),
  /// "<prefix>.flash_fill" / "<prefix>.flash_wear" (percent), and — when
  /// `process` is non-null — "<prefix>.<section>.transgressions" per
  /// supervised section. Both units must outlive the ControlDesk.
  void watch_environment(const wdg::EnvironmentSupervisionUnit& environment,
                         const std::string& prefix,
                         const wdg::ProcessSupervisionUnit* process = nullptr);

  /// Power-mode probes from a PowerModeManager: "<prefix>.mode" (enum
  /// index), "<prefix>.dwell_ms" (time in the current mode),
  /// "<prefix>.cause" (24-bit FNV-1a hash of the last transition cause —
  /// distinct causes plot as distinct levels), "<prefix>.transitions" and
  /// "<prefix>.refusals" (cumulative). When `unit` is non-null, also
  /// "<prefix>.overlay" (hash of the bound overlay), "<prefix>.silence"
  /// (1 while silence is contracted) and "<prefix>.mode_errors". Both
  /// must outlive the ControlDesk.
  void watch_power_mode(const mode::PowerModeManager& manager,
                        const std::string& prefix,
                        const mode::ModeSupervisionUnit* unit = nullptr);

  /// Begins sampling; stops after `horizon` from now.
  void start(sim::Duration horizon);

  [[nodiscard]] std::uint64_t samples_taken() const { return samples_; }

 private:
  sim::Engine& engine_;
  util::TraceRecorder& recorder_;
  sim::Duration period_;
  std::vector<std::pair<std::string, std::function<double()>>> probes_;
  sim::SimTime stop_at_;
  bool running_ = false;
  sim::Timer timer_;
  std::uint64_t samples_ = 0;

  void sample();
};

}  // namespace easis::validator
