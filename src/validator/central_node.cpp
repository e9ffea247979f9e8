#include "validator/central_node.hpp"

#include <algorithm>
#include <utility>

namespace easis::validator {

namespace {
std::int64_t lcm64(std::int64_t a, std::int64_t b) {
  std::int64_t x = a, y = b;
  while (y != 0) {
    const std::int64_t t = x % y;
    x = y;
    y = t;
  }
  return a / x * b;
}
}  // namespace

CentralNode::CentralNode(sim::Engine& engine, CentralNodeConfig config)
    : NodeConfigHolder<CentralNodeConfig>{std::move(config)},
      NodePlatform(engine, "CentralNode", config_),
      thermal_model_(config_.thermal) {
  auto& kernel = ecu_.kernel();
  auto& rte = ecu_.rte();

  // --- application tasks -----------------------------------------------------
  os::TaskConfig ss_task;
  ss_task.name = "Task_SafeSpeed";
  ss_task.priority = config_.safespeed_priority;
  safespeed_task_ = kernel.create_task(ss_task);
  safespeed_alarm_ = kernel.create_alarm(
      counter_, os::AlarmActionActivateTask{safespeed_task_},
      "Alarm_SafeSpeed");
  safespeed_ticks_ = period_ticks(config_.safespeed.period);
  safespeed_ = std::make_unique<apps::SafeSpeed>(
      rte, ecu_.signals(), safespeed_task_, config_.safespeed);
  safespeed_->configure_watchdog(watchdog_);

  if (config_.with_safelane) {
    os::TaskConfig sl_task;
    sl_task.name = "Task_SafeLane";
    sl_task.priority = config_.safelane_priority;
    safelane_task_ = kernel.create_task(sl_task);
    safelane_alarm_ = kernel.create_alarm(
        counter_, os::AlarmActionActivateTask{safelane_task_},
        "Alarm_SafeLane");
    safelane_ticks_ = period_ticks(config_.safelane.period);
    safelane_ = std::make_unique<apps::SafeLane>(
        rte, ecu_.signals(), safelane_task_, config_.safelane);
    safelane_->configure_watchdog(watchdog_);
  }

  if (config_.with_light_control) {
    os::TaskConfig lc_task;
    lc_task.name = "Task_LightControl";
    lc_task.priority = config_.light_priority;
    light_task_ = kernel.create_task(lc_task);
    light_alarm_ = kernel.create_alarm(
        counter_, os::AlarmActionActivateTask{light_task_},
        "Alarm_LightControl");
    light_ticks_ = period_ticks(config_.light.period);
    light_ = std::make_unique<apps::LightControl>(
        rte, ecu_.signals(), light_task_, config_.light);
    light_->configure_watchdog(watchdog_);
  }

  if (config_.with_crash_detection) {
    config_.crash.arrival_cycles = 10;  // per the watchdog check period
    crash_ = std::make_unique<apps::CrashDetection>(
        rte, ecu_.signals(), config_.crash_priority, config_.crash);
    crash_->configure_watchdog(watchdog_);
  }

  // --- time-triggered dispatching (OSEKTime-style) -----------------------------
  if (config_.time_triggered) {
    std::int64_t round_us = config_.safespeed.period.as_micros();
    if (safelane_) round_us = lcm64(round_us, config_.safelane.period.as_micros());
    if (light_) round_us = lcm64(round_us, config_.light.period.as_micros());
    schedule_table_ = std::make_unique<os::ScheduleTable>(
        kernel, "TT_Dispatcher", sim::Duration::micros(round_us));
    auto add_points = [&](TaskId task, sim::Duration period) {
      for (std::int64_t offset = 0; offset < round_us;
           offset += period.as_micros()) {
        schedule_table_->add_expiry_point(
            {sim::Duration::micros(offset), task, period});
      }
    };
    add_points(safespeed_task_, config_.safespeed.period);
    if (safelane_) add_points(safelane_task_, config_.safelane.period);
    if (light_) add_points(light_task_, config_.light.period);
  }

  // --- dependability services ---------------------------------------------------
  add_watchdog_service();

  std::vector<std::string> frame_signals{"vehicle.speed_kmh", "driver.demand",
                                         "safespeed.max_speed_kmh"};
  frame_signals.insert(frame_signals.end(),
                       config_.extra_frame_signals.begin(),
                       config_.extra_frame_signals.end());
  build_fault_memory(std::move(frame_signals), config_.dtc_capacity);

  if (config_.with_self_supervision) {
    wdg::SelfSupervisionConfig ss_config = config_.self_supervision;
    // A watchdog check period swept past the HW timeout must not look like
    // a hung watchdog task.
    const sim::Duration floor = config_.watchdog.check_period * 5;
    if (ss_config.hw_timeout < floor) ss_config.hw_timeout = floor;
    self_supervision_ =
        std::make_unique<wdg::WatchdogSelfSupervision>(engine_, ss_config);
    self_supervision_->set_expire_callback(
        [this](sim::SimTime now) { on_hw_watchdog_expired(now); });
    service_->attach_self_supervision(self_supervision_.get());
  }

  if (config_.policy) apply_policy_bindings();
}

void CentralNode::apply_policy_bindings() {
  const policy::PolicySet& pol = *config_.policy;
  // Per-role FMF treatment selection. Under the baseline policy every
  // role carries the FMF's default (restart, 3 restarts), so setting the
  // policies explicitly is behaviourally identical to not setting them.
  bind_treatment(safespeed_->application(), pol.treatment.safety);
  if (safelane_) bind_treatment(safelane_->application(), pol.treatment.assist);
  if (light_) bind_treatment(light_->application(), pol.treatment.qm);
  if (crash_) bind_treatment(crash_->application(), pol.treatment.qm);
  // HBM scale/tolerances over every heartbeat-monitored runnable. Guarded
  // so the baseline (scale 1, tolerances 0) leaves the hypotheses
  // untouched bit-for-bit.
  const double scale = pol.detection.hbm_scale;
  const std::uint32_t alive_tol = pol.detection.aliveness_tolerance;
  const std::uint32_t arrival_tol = pol.detection.arrival_tolerance;
  if (scale != 1.0 || alive_tol != 0 || arrival_tol != 0) {
    auto scaled = [scale](std::uint32_t cycles) {
      const double v = static_cast<double>(cycles) * scale;
      return std::max<std::uint32_t>(1, static_cast<std::uint32_t>(v + 0.5));
    };
    const sim::Duration check = watchdog_.config().check_period;
    for (RunnableId runnable :
         watchdog_.heartbeat_unit().monitored_runnables()) {
      const wdg::RunnableMonitor& cfg =
          watchdog_.heartbeat_unit().config(runnable);
      if (!cfg.monitor_aliveness && !cfg.monitor_arrival_rate) continue;
      const std::uint32_t alive_cycles = scaled(cfg.aliveness_cycles);
      const std::uint32_t arrival_cycles = scaled(cfg.arrival_cycles);
      std::uint32_t min_hb =
          cfg.min_heartbeats > alive_tol ? cfg.min_heartbeats - alive_tol : 0;
      std::uint32_t max_arr = cfg.max_arrivals + arrival_tol;
      // The scaled hypothesis must remain satisfiable at the runnable's
      // nominal rate, or the boot-time config check rejects it (guaranteed
      // false positives). Clamp the bounds the same way the checker
      // derives them from the task period.
      const sim::Duration period = nominal_period_of(runnable);
      if (period > sim::Duration::zero()) {
        const std::int64_t expected_aliveness =
            (static_cast<std::int64_t>(alive_cycles) * check.as_micros()) /
            period.as_micros();
        min_hb = std::min<std::uint32_t>(
            min_hb, static_cast<std::uint32_t>(expected_aliveness));
        const std::int64_t expected_arrivals =
            (static_cast<std::int64_t>(arrival_cycles) * check.as_micros() +
             period.as_micros() - 1) /
            period.as_micros();
        max_arr = std::max<std::uint32_t>(
            max_arr, static_cast<std::uint32_t>(expected_arrivals));
      }
      watchdog_.update_hypothesis(runnable, alive_cycles, min_hb,
                                  arrival_cycles, max_arr);
    }
  }
  // Deadline window scale (no-op at factor 1).
  watchdog_.scale_deadline_windows(pol.detection.deadline_scale);
}

sim::Duration CentralNode::nominal_period_of(RunnableId id) {
  // Virtual runnables (e.g. CMU communication channels) are monitored by
  // the watchdog but unknown to the RTE.
  if (!id.valid() || id.value() >= ecu_.rte().runnable_count()) {
    return sim::Duration::zero();
  }
  const TaskId task = ecu_.rte().task_of(id);
  if (task == safespeed_task_) return config_.safespeed.period;
  if (safelane_ && task == safelane_task_) return config_.safelane.period;
  if (light_ && task == light_task_) return config_.light.period;
  return sim::Duration::zero();  // sporadic (crash detection)
}

std::pair<TaskId, ApplicationId> CentralNode::monitor_account() const {
  if (light_) return {light_task_, light_->application()};
  return {safespeed_task_, safespeed_->application()};
}

policy::CheckSupervisionUnit* CentralNode::attach_check_supervision() {
  const auto [task, app] = monitor_account();
  return supervise_checks(task, app);
}

diag::DiagServer& CentralNode::attach_diag(bus::CanBus& can,
                                           diag::DiagServerConfig config) {
  return open_diag(can, std::move(config), esu_.get());
}

wdg::ResourceSupervisionUnit& CentralNode::attach_resource_supervision() {
  if (!rsu_) {
    rsu_ = std::make_unique<wdg::ResourceSupervisionUnit>(
        watchdog_, ecu_.kernel(), ecu_.signals());
  }
  return *rsu_;
}

wdg::EnvironmentSupervisionUnit& CentralNode::attach_environment_supervision() {
  if (esu_) return *esu_;
  esu_ = std::make_unique<wdg::EnvironmentSupervisionUnit>(watchdog_,
                                                           ecu_.signals());
  const auto [account_task, account_app] = monitor_account();
  wdg::ThermalChannel thermal;
  thermal.id = RunnableId{2100};
  thermal.task = account_task;
  thermal.application = account_app;
  thermal.name = "ecu";
  thermal.limits = config_.thermal_limits;
  thermal.probe = [this] { return thermal_model_.sensor_c(); };
  esu_->add_thermal(thermal);
  if (nvm_ != nullptr) {
    wdg::FilesystemChannel fs;
    fs.id = RunnableId{2101};
    fs.task = account_task;
    fs.application = account_app;
    fs.name = "faultmem";
    fs.limits = config_.filesystem_limits;
    fs.fill_probe = [this] { return nvm_->fill_level(); };
    fs.wear_probe = [this] { return nvm_->wear_level(); };
    fs.write_error_probe = [this] {
      return static_cast<std::uint64_t>(nvm_->write_errors()) +
             (fmf_ ? fmf_->nvm_write_failures() : 0u);
    };
    fs.overflow_probe = [this] {
      return static_cast<std::uint64_t>(nvm_->overflows());
    };
    esu_->add_filesystem(fs);
  }
  esu_->set_derate_hooks(
      [this](sim::SimTime now) { enter_thermal_derate(now); },
      [this](sim::SimTime now) { exit_thermal_derate(now); });
  esu_->set_shutdown_hook([this](sim::SimTime now) {
    if (!fmf_) {
      latch_safe_state();
      return;
    }
    fmf::ResetCause cause;
    cause.source = fmf::ResetSource::kThermalShutdown;
    cause.error = wdg::ErrorType::kThermal;
    cause.time = now;
    cause.detail = "thermal ladder reached shutdown stage";
    fmf_->request_safe_state(std::move(cause), now);
  });
  return *esu_;
}

void CentralNode::enter_thermal_derate(sim::SimTime now) {
  if (derated_) return;
  derated_ = true;
  park_qm_applications();  // reversible, unlike the safe state
  // Stretch the HBM hypotheses of the runnables that keep running: the
  // derated (slower) node must not trip aliveness monitoring.
  stretched_.clear();
  const std::uint32_t f = std::max<std::uint32_t>(config_.derate_hbm_stretch,
                                                  1);
  for (RunnableId runnable :
       watchdog_.heartbeat_unit().monitored_runnables()) {
    if (!watchdog_.activation_status(runnable)) continue;
    const wdg::RunnableMonitor& cfg =
        watchdog_.heartbeat_unit().config(runnable);
    if (!cfg.monitor_aliveness && !cfg.monitor_arrival_rate) continue;
    stretched_.emplace_back(runnable, cfg);
    watchdog_.update_hypothesis(runnable, cfg.aliveness_cycles * f,
                                cfg.min_heartbeats, cfg.arrival_cycles * f,
                                cfg.max_arrivals * f);
  }
  (void)now;
}

void CentralNode::exit_thermal_derate(sim::SimTime now) {
  if (!derated_) return;
  derated_ = false;
  if (in_safe_state()) return;  // the safe state owns the configuration now
  for (const auto& [runnable, cfg] : stretched_) {
    watchdog_.update_hypothesis(runnable, cfg.aliveness_cycles,
                                cfg.min_heartbeats, cfg.arrival_cycles,
                                cfg.max_arrivals);
  }
  stretched_.clear();
  auto unpark = [this, now](ApplicationId app) {
    ecu_.rte().set_application_enabled(app, true);
    watchdog_.set_application_active(app, true);
    for (TaskId task : ecu_.rte().tasks_of_application(app)) {
      watchdog_.clear_task_state(task, now);
    }
  };
  if (safelane_) unpark(safelane_->application());
  if (light_) unpark(light_->application());
  if (crash_) unpark(crash_->application());
}

void CentralNode::on_hw_watchdog_expired(sim::SimTime now) {
  ++hw_resets_;
  fmf::ResetCause cause;
  cause.source = fmf::ResetSource::kHardwareWatchdog;
  cause.task = service_->task();
  cause.time = now;
  cause.detail =
      "hardware watchdog expired (software watchdog not serviced)";
  if (fmf_) {
    fmf_->request_reset(std::move(cause), now);
    return;
  }
  software_reset();
}

void CentralNode::enter_safe_state() {
  // The HW watchdog must not reset the parked node.
  if (self_supervision_) self_supervision_->stop();
  safespeed_->set_limp_home(true);
  park_qm_applications();
}

void CentralNode::park_qm_applications() {
  auto park = [this](ApplicationId app) {
    watchdog_.set_application_active(app, false);
    ecu_.rte().set_application_enabled(app, false);
  };
  if (safelane_) park(safelane_->application());
  if (light_) park(light_->application());
  if (crash_) park(crash_->application());
}

void CentralNode::arm_alarms() {
  auto& kernel = ecu_.kernel();
  if (schedule_table_) {
    if (schedule_table_->running()) schedule_table_->stop();
    // First round starts one dispatcher period in (like the alarms).
    schedule_table_->start(config_.safespeed.period);
  } else {
    kernel.set_rel_alarm(safespeed_alarm_, safespeed_ticks_,
                         safespeed_ticks_);
    if (safelane_) {
      kernel.set_rel_alarm(safelane_alarm_, safelane_ticks_, safelane_ticks_);
    }
    if (light_) {
      kernel.set_rel_alarm(light_alarm_, light_ticks_, light_ticks_);
    }
  }
  service_->arm();
}

void CentralNode::before_reset() {
  if (self_supervision_) self_supervision_->stop();
}

void CentralNode::boot_node() {
  arm_alarms();
  if (crash_) crash_->start();
  if (self_supervision_ && !in_safe_state()) self_supervision_->start();
  timers_.add(
      engine_.every(config_.environment_step, [this] { step_environment(); }));
  const sim::Duration period = config_.watchdog.check_period;
  if (rsu_) {
    timers_.add(engine_.every(
        period, [this] { rsu_->cycle(engine_.now()); },
        sim::EventPriority::kMonitor));
  }
  if (esu_ || psu_ || csu_) {
    timers_.add(engine_.every(
        period,
        [this] {
          if (esu_) esu_->cycle(engine_.now());
          cycle_process_supervision(engine_.now());
        },
        sim::EventPriority::kMonitor));
  }
}

void CentralNode::step_environment() {
  auto& signals = ecu_.signals();
  vehicle_.set_drive_command(signals.read_or("actuator.drive_cmd", 0.0));
  vehicle_.step(config_.environment_step);
  lane_.step(config_.environment_step);
  thermal_model_.step(config_.environment_step,
                      rsu_ ? rsu_->load_average() : 0.0);
  signals.publish("vehicle.speed_kmh", vehicle_.speed_kmh(), engine_.now());
  signals.publish("lane.offset_m", lane_.lateral_offset_m(), engine_.now());
}

}  // namespace easis::validator
