#include "wdg/watchdog.hpp"

#include <algorithm>

#include "profile/profiler.hpp"
#include "telemetry/event_bus.hpp"
#include "util/text.hpp"

namespace easis::wdg {

namespace {

/// Which monitoring unit an error class originates from, for telemetry.
telemetry::Component detector_component(ErrorType type) {
  switch (type) {
    case ErrorType::kAliveness:
    case ErrorType::kAccumulatedAliveness:
      return telemetry::Component::kHeartbeatUnit;
    case ErrorType::kArrivalRate:
      return telemetry::Component::kArrivalRateUnit;
    case ErrorType::kProgramFlow:
      return telemetry::Component::kProgramFlowUnit;
    case ErrorType::kDeadline:
      return telemetry::Component::kDeadlineUnit;
    case ErrorType::kCommunication:
      return telemetry::Component::kComMonitor;
    case ErrorType::kNvmCorruption:
      return telemetry::Component::kFmf;
    case ErrorType::kMemoryBudget:
    case ErrorType::kHandleExhaustion:
    case ErrorType::kQueueOverflow:
    case ErrorType::kCpuOverload:
      return telemetry::Component::kResourceUnit;
    case ErrorType::kThermal:
    case ErrorType::kFilesystem:
      return telemetry::Component::kEnvironmentUnit;
    case ErrorType::kCheckRule:
      return telemetry::Component::kCheckUnit;
    case ErrorType::kPowerMode:
      return telemetry::Component::kModeUnit;
  }
  return telemetry::Component::kHarness;
}

}  // namespace

SoftwareWatchdog::SoftwareWatchdog(WatchdogConfig config)
    : config_(config),
      tsi_(TaskStateIndicationUnit::Thresholds{
               {config.aliveness_threshold, config.arrival_rate_threshold,
                config.program_flow_threshold,
                config.accumulated_aliveness_threshold,
                config.deadline_threshold, config.communication_threshold,
                config.nvm_corruption_threshold, config.resource_threshold,
                config.resource_threshold, config.resource_threshold,
                config.resource_threshold, config.environment_threshold,
                config.environment_threshold, config.check_rule_threshold,
                config.power_mode_threshold}},
           config.ecu_faulty_task_limit) {
  // The TSI supports a single callback per state level; fan out here.
  tsi_.set_task_state_callback(
      [this](TaskId task, Health health, sim::SimTime now) {
        for (const auto& l : task_state_listeners_) l(task, health, now);
      });
  tsi_.set_application_state_callback(
      [this](ApplicationId app, Health health, sim::SimTime now) {
        for (const auto& l : app_state_listeners_) l(app, health, now);
      });
  tsi_.set_ecu_state_callback([this](Health health, sim::SimTime now) {
    for (const auto& l : ecu_state_listeners_) l(health, now);
  });
}

void SoftwareWatchdog::add_runnable(const RunnableMonitor& monitor) {
  hbm_.add_runnable(monitor);
  tsi_.add_runnable(monitor.runnable, monitor.task, monitor.application);
  if (monitor.program_flow) {
    pfc_.add_monitored(monitor.runnable, monitor.task);
  }
}

void SoftwareWatchdog::add_virtual_runnable(RunnableId runnable, TaskId task,
                                            ApplicationId application,
                                            std::string name) {
  RunnableMonitor monitor;
  monitor.runnable = runnable;
  monitor.task = task;
  monitor.application = application;
  monitor.name = std::move(name);
  monitor.monitor_aliveness = false;
  monitor.monitor_arrival_rate = false;
  monitor.program_flow = false;
  add_runnable(monitor);
  virtual_runnables_.insert(runnable);
}

void SoftwareWatchdog::add_flow_edge(RunnableId pred, RunnableId succ) {
  pfc_.add_edge(pred, succ);
}

void SoftwareWatchdog::add_flow_entry_point(RunnableId runnable) {
  pfc_.add_entry_point(runnable);
}

std::size_t SoftwareWatchdog::add_deadline_pair(DeadlinePair pair) {
  if (!hbm_.monitors(pair.start) || !hbm_.monitors(pair.end)) {
    throw std::logic_error(
        "SoftwareWatchdog: deadline checkpoints must be monitored");
  }
  return deadline_.add_pair(std::move(pair));
}

void SoftwareWatchdog::indicate_aliveness(RunnableId runnable, TaskId task,
                                          sim::SimTime now) {
  EASIS_PROFILE_SPAN("wdg.aliveness");
  hbm_.indicate(runnable);
  recovery_.on_heartbeat(runnable);
  {
    EASIS_PROFILE_SPAN("wdg.pfc_check");
    pfc_.on_execution(runnable, task, now,
                      [this](RunnableId r, RunnableId pred, TaskId t,
                             sim::SimTime t_now) {
                        handle_pfc_error(r, pred, t, t_now);
                      });
  }
  {
    EASIS_PROFILE_SPAN("wdg.deadline_check");
    deadline_.on_execution(runnable, now,
                           [this](std::size_t pair_index,
                                  sim::Duration measured, sim::SimTime t_now) {
                             handle_deadline_error(pair_index, measured, t_now);
                           });
  }
}

void SoftwareWatchdog::main_function(sim::SimTime now) {
  EASIS_PROFILE_SPAN("wdg.main_function");
  ++cycles_;
  {
    EASIS_PROFILE_SPAN("wdg.hbm_tick");
    hbm_.tick(now, [this](RunnableId r, ErrorType type, sim::SimTime t_now) {
      handle_hbm_error(r, type, t_now);
    });
  }
  recovery_.on_cycle(now);
}

void SoftwareWatchdog::notify_task_terminated(TaskId task) {
  pfc_.task_boundary(task);
}

void SoftwareWatchdog::report_external_error(ErrorReport report) {
  emit(std::move(report));
}

void SoftwareWatchdog::handle_hbm_error(RunnableId runnable, ErrorType type,
                                        sim::SimTime now) {
  const RunnableMonitor& m = hbm_.config(runnable);
  if (type == ErrorType::kAliveness) {
    auto episode = last_flow_error_cycle_.find(m.task);
    if (episode != last_flow_error_cycle_.end()) {
      const std::uint64_t age = cycles_ - episode->second;
      if (age <= m.aliveness_cycles + 1) {
        // Unit collaboration (Figure 6): the missing heartbeats are a
        // symptom of the just-detected program flow error. Accumulate;
        // report only the first occurrence of the episode so the TSI sees
        // the real cause.
        if (!accumulated_reported_.insert(m.task).second) return;
        type = ErrorType::kAccumulatedAliveness;
      } else {
        // No flow error for a full monitoring window: the episode is over.
        // This aliveness error stands on its own (e.g. the task is now
        // starved); keeping the mask would hide it indefinitely.
        last_flow_error_cycle_.erase(episode);
        accumulated_reported_.erase(m.task);
      }
    }
  }
  emit({.runnable = runnable, .type = type, .time = now});
}

void SoftwareWatchdog::handle_pfc_error(RunnableId runnable,
                                        RunnableId predecessor, TaskId task,
                                        sim::SimTime now) {
  last_flow_error_cycle_[task] = cycles_;
  emit({.runnable = runnable,
        .type = ErrorType::kProgramFlow,
        .time = now,
        .related = predecessor});
}

void SoftwareWatchdog::handle_deadline_error(std::size_t pair_index,
                                             sim::Duration measured,
                                             sim::SimTime now) {
  const DeadlinePair& pair = deadline_.pair(pair_index);
  emit({.runnable = pair.end,
        .type = ErrorType::kDeadline,
        .time = now,
        .related = pair.start,
        .detail = util::concat(pair.name, ": ", measured.as_micros(),
                               "us outside [", pair.min.as_micros(), ", ",
                               pair.max.as_micros(), "]us")});
}

void SoftwareWatchdog::emit(ErrorReport report) {
  // The registration is the one record of a runnable's task and
  // application; detectors report only the runnable.
  if (hbm_.monitors(report.runnable)) {
    const RunnableMonitor& m = hbm_.config(report.runnable);
    report.task = m.task;
    report.application = m.application;
  }
  ++errors_;
  if (telemetry::enabled()) {
    // Single funnel for every detection in the stack, so one emit site
    // covers HBM/ARM/PFC/deadline/com-monitor and external reports.
    telemetry::Event event;
    event.time = report.time;
    event.component = detector_component(report.type);
    event.kind = telemetry::EventKind::kErrorDetected;
    event.runnable = report.runnable;
    event.task = report.task;
    event.application = report.application;
    const std::string_view type = to_string(report.type);
    if (report.detail.empty()) {
      event.detail = type;
    } else {
      event.detail.reserve(type.size() + 2 + report.detail.size());
      util::append(event.detail, type, ": ", report.detail);
    }
    telemetry::emit(std::move(event));
  }
  // Report the error to the FMF before the TSI derives new states: state
  // transitions may trigger treatments, and the causal fault must already
  // be on record (fault log, DTC store) when they run.
  for (const auto& listener : error_listeners_) listener(report);
  tsi_.report_error(report.runnable, report.type, report.time);
  // Recovery validation last: a failing warm-up window may escalate into a
  // treatment, and the causal fault must already be logged and counted.
  recovery_.on_error(report, report.time);
}

void SoftwareWatchdog::add_error_listener(ErrorListener listener) {
  error_listeners_.push_back(std::move(listener));
}

void SoftwareWatchdog::add_task_state_listener(TaskStateListener listener) {
  task_state_listeners_.push_back(std::move(listener));
}

void SoftwareWatchdog::add_application_state_listener(
    ApplicationStateListener listener) {
  app_state_listeners_.push_back(std::move(listener));
}

void SoftwareWatchdog::add_ecu_state_listener(EcuStateListener listener) {
  ecu_state_listeners_.push_back(std::move(listener));
}

void SoftwareWatchdog::set_activation_status(RunnableId runnable,
                                             bool active) {
  hbm_.set_activation_status(runnable, active);
}

bool SoftwareWatchdog::activation_status(RunnableId runnable) const {
  return hbm_.activation_status(runnable);
}

void SoftwareWatchdog::set_application_active(ApplicationId app,
                                              bool active) {
  for (RunnableId runnable : hbm_.monitored_runnables()) {
    if (hbm_.config(runnable).application == app && !is_virtual(runnable)) {
      hbm_.set_activation_status(runnable, active);
    }
  }
}

void SoftwareWatchdog::update_hypothesis(RunnableId runnable,
                                         std::uint32_t aliveness_cycles,
                                         std::uint32_t min_heartbeats,
                                         std::uint32_t arrival_cycles,
                                         std::uint32_t max_arrivals) {
  hbm_.update_hypothesis(runnable, aliveness_cycles, min_heartbeats,
                         arrival_cycles, max_arrivals);
}

void SoftwareWatchdog::rebind_hypothesis(const RunnableMonitor& monitor) {
  hbm_.rebind(monitor);
}

void SoftwareWatchdog::clear_task_state(TaskId task, sim::SimTime now) {
  tsi_.clear_task(task, now);
  pfc_.task_boundary(task);
  last_flow_error_cycle_.erase(task);
  accumulated_reported_.erase(task);
  hbm_.reset_task(task);
}

void SoftwareWatchdog::reset_runnable(RunnableId runnable) {
  hbm_.reset_runnable(runnable);
}

void SoftwareWatchdog::reset(sim::SimTime now) {
  hbm_.reset();
  pfc_.reset();
  deadline_.reset();
  tsi_.reset(now);
  recovery_.cancel();  // a pre-reset window cannot validate the new boot
  last_flow_error_cycle_.clear();
  accumulated_reported_.clear();
}

void SoftwareWatchdog::write_supervision_reports(std::ostream& out) const {
  const auto& runnables = hbm_.monitored_runnables();
  out << "supervision reports (" << runnables.size()
      << " monitored runnables):\n";
  std::size_t name_width = 8;
  for (RunnableId id : runnables) {
    name_width = std::max(name_width, hbm_.config(id).name.size());
  }
  for (RunnableId id : runnables) {
    const RunnableMonitor& m = hbm_.config(id);
    const auto count = [&](ErrorType type) {
      return tsi_.error_count(id, type);
    };
    out << "  " << m.name;
    for (std::size_t pad = m.name.size(); pad < name_width + 2; ++pad) {
      out << ' ';
    }
    out << "task " << m.task << "  AS=" << (hbm_.activation_status(id) ? 1 : 0)
        << "  aliveness=" << count(ErrorType::kAliveness)
        << " arrival=" << count(ErrorType::kArrivalRate)
        << " flow=" << count(ErrorType::kProgramFlow)
        << " accumulated=" << count(ErrorType::kAccumulatedAliveness)
        << "  task_state=" << to_string(tsi_.task_health(m.task)) << '\n';
  }
  out << "  global ECU state: " << to_string(tsi_.ecu_health()) << '\n';
}

Severity SoftwareWatchdog::severity_of(ErrorType type) {
  return kDefaultSeverities[static_cast<std::size_t>(type)];
}

Severity SoftwareWatchdog::severity(ErrorType type) const {
  return config_.severities[static_cast<std::size_t>(type)];
}

void SoftwareWatchdog::scale_deadline_windows(double factor) {
  deadline_.scale_windows(factor);
}

}  // namespace easis::wdg
