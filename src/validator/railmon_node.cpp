#include "validator/railmon_node.hpp"

#include <utility>

#include "diag/protocol.hpp"

namespace easis::validator {

RailMonNode::RailMonNode(sim::Engine& engine, RailMonNodeConfig config)
    : NodeConfigHolder<RailMonNodeConfig>{std::move(config)},
      NodePlatform(engine, "RailMonNode", config_) {
  auto& kernel = ecu_.kernel();
  auto& rte = ecu_.rte();

  os::TaskConfig control_cfg;
  control_cfg.name = "Task_DutyCycler";
  control_cfg.priority = config_.control_priority;
  control_task_ = kernel.create_task(control_cfg);
  control_alarm_ = kernel.create_alarm(
      counter_, os::AlarmActionActivateTask{control_task_},
      "Alarm_DutyCycler");
  control_ticks_ = period_ticks(config_.railmon.control_period);

  os::TaskConfig sensor_cfg;
  sensor_cfg.name = "Task_Acquisition";
  sensor_cfg.priority = config_.sensor_priority;
  sensor_task_ = kernel.create_task(sensor_cfg);
  sensor_alarm_ = kernel.create_alarm(
      counter_, os::AlarmActionActivateTask{sensor_task_},
      "Alarm_Acquisition");
  sample_ticks_ = period_ticks(config_.railmon.sample_period);
  burst_ticks_ = period_ticks(config_.railmon.burst_period);

  // --- mode machine -----------------------------------------------------------
  manager_ = std::make_unique<mode::PowerModeManager>(engine, ecu_.signals(),
                                                      config_.mode);
  using mode::PowerMode;
  manager_->allow(PowerMode::kRun, PowerMode::kFlashWrite);
  manager_->allow(PowerMode::kFlashWrite, PowerMode::kSleep);
  manager_->allow(PowerMode::kSleep, PowerMode::kWakeBurst);
  manager_->allow(PowerMode::kWakeBurst, PowerMode::kRun);
  manager_->allow(PowerMode::kRun, PowerMode::kIdle);
  manager_->allow(PowerMode::kIdle, PowerMode::kRun);
  manager_->allow(PowerMode::kIdle, PowerMode::kSleep);
  // Guard: the node must not strand an overfull uncommitted journal in
  // deep sleep — sleep is only granted when the flash window actually
  // committed the backlog.
  manager_->add_guard([this](PowerMode, PowerMode to, std::string& veto) {
    if (to == PowerMode::kSleep && railmon_ != nullptr &&
        railmon_->journal_depth() > config_.railmon.journal_capacity / 2) {
      veto = "uncommitted journal backlog";
      return false;
    }
    return true;
  });

  railmon_ = std::make_unique<apps::RailMon>(rte, ecu_.signals(), *manager_,
                                             control_task_, sensor_task_,
                                             config_.railmon);
  railmon_->configure_watchdog(watchdog_);

  // --- mode-dependent supervision --------------------------------------------
  // The unit's transition listener registers first: a commit rebinds the
  // hypotheses before the node's listener re-programs the alarms, so the
  // new mode's monitoring contract is armed the instant its activation
  // pattern changes.
  mode_unit_ = std::make_unique<mode::ModeSupervisionUnit>(
      *manager_, watchdog_, control_task_, railmon_->application(),
      config_.mode_supervision);
  const sim::Duration check = watchdog_.config().check_period;
  mode_unit_->bind(railmon_->sensor_monitor_base(check));
  mode_unit_->bind(railmon_->uplink_monitor_base(check));

  manager_->add_listener([this](const mode::ModeTransition& transition) {
    if (transition.to == PowerMode::kFlashWrite) {
      // The declared flash window: journal handover + fault-memory commit
      // happen inside it, while the overlay has the checks suspended.
      railmon_->commit_journal(transition.at);
      if (fmf_) fmf_->persist();
    }
    apply_mode_scheduling(transition.to);
  });

  add_watchdog_service();

  // --- check rules (gated by the overlays' checks_enabled) --------------------
  if (policy::CheckSupervisionUnit* csu =
          supervise_checks(control_task_, railmon_->application())) {
    mode_unit_->attach_check_unit(csu);
  }

  // --- fault memory -----------------------------------------------------------
  build_fault_memory({"railmon.journal_depth", "railmon.committed",
                      "railmon.uplinked", config_.mode.signal},
                     config_.dtc_capacity);
  if (fmf_) {
    // The active power mode rides in the NVM image: a node that reset
    // while asleep boots *into* Sleep, silence contract re-armed, instead
    // of defaulting to Run and heartbeating through a contracted silence.
    fmf_->attach_power_mode_store(
        [this] { return std::string(mode::to_string(manager_->current())); },
        [this](const std::string& persisted) {
          const auto parsed = mode::parse_power_mode(persisted);
          if (parsed) manager_->reseed(*parsed, engine_.now());
        });
    // An application restart cannot un-hang an in-flight mode transition:
    // the swallowed grant lives in the mode machine, not in the restarted
    // runnables. Persistent hang reports while the transition is still
    // pending therefore escalate to an ECU reset, whose NVM re-seed
    // clears the stuck two-phase commit (or parks the node in the safe
    // state once the reset budget is spent).
    watchdog_.add_error_listener([this](const wdg::ErrorReport& report) {
      if (report.type != wdg::ErrorType::kPowerMode) return;
      if (!manager_->transition_pending()) {
        hung_mode_reports_ = 0;
        return;
      }
      if (++hung_mode_reports_ < kHungModeResetThreshold) return;
      hung_mode_reports_ = 0;
      engine_.schedule_in(sim::Duration::millis(1), [this] {
        if (rebooting() || in_safe_state() || !fmf_) return;
        if (!manager_->transition_pending()) return;
        fmf::ResetCause cause;
        cause.source = fmf::ResetSource::kEcuFaulty;
        cause.time = engine_.now();
        cause.detail = "hung power-mode transition: escalating to ECU reset";
        fmf_->request_reset(std::move(cause), engine_.now());
      });
    });
  }

  // --- policy bindings --------------------------------------------------------
  if (config_.policy) {
    bind_treatment(railmon_->application(), config_.policy->treatment.safety);
    mode_unit_->set_policy(config_.policy, engine_.now());
  }
}

sim::Duration RailMonNode::nominal_period_of(RunnableId id) {
  if (id == railmon_->duty_cycle_control()) {
    return config_.railmon.control_period;
  }
  if (id == railmon_->sample_sensor() || id == railmon_->uplink_process()) {
    return config_.railmon.sample_period;
  }
  return sim::Duration::zero();
}

void RailMonNode::arm_alarms() {
  kernel().set_rel_alarm(control_alarm_, control_ticks_, control_ticks_);
  apply_mode_scheduling(manager_->current());
  service_->arm();
}

void RailMonNode::apply_mode_scheduling(mode::PowerMode mode) {
  auto& kernel = ecu_.kernel();
  (void)kernel.cancel_alarm(sensor_alarm_);
  if (in_safe_state()) return;  // sensing chain stays parked
  switch (mode) {
    case mode::PowerMode::kSleep:
      // Deep sleep: the sensing task's heartbeats stop by contract.
      break;
    case mode::PowerMode::kWakeBurst:
      kernel.set_rel_alarm(sensor_alarm_, burst_ticks_, burst_ticks_);
      break;
    default:
      kernel.set_rel_alarm(sensor_alarm_, sample_ticks_, sample_ticks_);
      break;
  }
}

void RailMonNode::boot_node() {
  // The fault-memory re-seed before this restored the persisted power
  // mode; its reseed listener re-applied the mode's overlay and the
  // node's scheduling contract, and arm_alarms() (idempotent: cancel +
  // re-arm) fixes up whatever the current mode demands.
  arm_alarms();
  timers_.add(engine_.every(
      config_.watchdog.check_period,
      [this] {
        mode_unit_->cycle(engine_.now());
        cycle_process_supervision(engine_.now());
      },
      sim::EventPriority::kMonitor));
}

void RailMonNode::enter_safe_state() {
  railmon_->set_duty_hold(true);
  (void)ecu_.kernel().cancel_alarm(sensor_alarm_);
  for (RunnableId runnable :
       {railmon_->sample_sensor(), railmon_->uplink_process()}) {
    if (watchdog_.heartbeat_unit().monitors(runnable)) {
      watchdog_.set_activation_status(runnable, false);
    }
  }
}

diag::DiagServer& RailMonNode::attach_diag(bus::CanBus& can,
                                           diag::DiagServerConfig config) {
  diag::DiagServer& server = open_diag(can, std::move(config));
  // Power-mode identifiers: the workshop tester can verify which mode the
  // node believes it is in and which overlay its supervision is bound to.
  server.add_data_identifier(diag::kDidPowerMode, "power_mode", [this] {
    return static_cast<double>(static_cast<std::uint8_t>(manager_->current()));
  });
  server.add_data_identifier(
      diag::kDidModeOverlayHash, "mode_overlay_hash", [this] {
        return static_cast<double>(mode_unit_->active_overlay_hash24());
      });
  return server;
}

}  // namespace easis::validator
