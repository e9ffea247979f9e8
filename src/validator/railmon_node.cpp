#include "validator/railmon_node.hpp"

#include <stdexcept>
#include <utility>

#include "diag/protocol.hpp"
#include "util/logging.hpp"
#include "wdg/config_check.hpp"

namespace easis::validator {

namespace {
std::uint64_t period_ticks(sim::Duration period) {
  constexpr std::int64_t kTickMicros = 1000;  // 1 ms system counter
  const std::int64_t p = period.as_micros();
  if (p <= 0 || p % kTickMicros != 0) {
    throw std::invalid_argument(
        "RailMonNode: task periods must be positive multiples of 1ms");
  }
  return static_cast<std::uint64_t>(p / kTickMicros);
}
}  // namespace

RailMonNode::RailMonNode(sim::Engine& engine, RailMonNodeConfig config)
    : engine_(engine),
      config_(config),
      ecu_(engine, "RailMonNode"),
      watchdog_(config.watchdog) {
  auto& kernel = ecu_.kernel();
  auto& rte = ecu_.rte();

  os::CounterConfig counter_config;
  counter_config.name = "SystemTimer";
  counter_config.tick = sim::Duration::millis(1);
  counter_ = kernel.create_counter(counter_config);

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

  service_ = std::make_unique<wdg::WatchdogService>(
      kernel, rte, watchdog_, counter_, config_.watchdog_service);

  // --- check rules (gated by the overlays' checks_enabled) --------------------
  if (config_.policy && !config_.policy->checks.empty()) {
    psu_ = std::make_unique<wdg::ProcessSupervisionUnit>(watchdog_);
    csu_ = std::make_unique<policy::CheckSupervisionUnit>(
        watchdog_, *psu_, ecu_.signals(), control_task_,
        railmon_->application());
    for (const policy::CheckRule& rule : config_.policy->checks) {
      csu_->add_rule(rule);
    }
    mode_unit_->attach_check_unit(csu_.get());
  }

  // --- fault memory -----------------------------------------------------------
  if (config_.with_fmf) {
    fmf_ = std::make_unique<fmf::FaultManagementFramework>(
        rte, watchdog_, [this] { software_reset(); }, config_.fmf);
    dtc_ = std::make_unique<fmf::DtcStore>(
        ecu_.signals(),
        std::vector<std::string>{"railmon.journal_depth", "railmon.committed",
                                 "railmon.uplinked", config_.mode.signal},
        config_.dtc_capacity);
    fmf_->attach_dtc_store(dtc_.get());
    if (config_.with_nvm) {
      if (config_.external_nvm != nullptr) {
        nvm_ = config_.external_nvm;
      } else {
        owned_nvm_ = std::make_unique<fmf::NvmStore>(config_.nvm_capacity);
        nvm_ = owned_nvm_.get();
      }
      fmf_->attach_nvm(nvm_);
    }
    if (psu_) {
      fmf_->attach_transgression_store(
          [this] { return psu_->persisted_records(); },
          [this](const std::vector<wdg::TransgressionRecord>& records) {
            psu_->restore_records(records);
          });
    }
    // The active power mode rides in the NVM image: a node that reset
    // while asleep boots *into* Sleep, silence contract re-armed, instead
    // of defaulting to Run and heartbeating through a contracted silence.
    fmf_->attach_power_mode_store(
        [this] { return std::string(mode::to_string(manager_->current())); },
        [this](const std::string& persisted) {
          const auto parsed = mode::parse_power_mode(persisted);
          if (parsed) manager_->reseed(*parsed, engine_.now());
        });
    fmf_->set_safe_state_hook(
        [this](const fmf::ResetCause& cause) { enter_safe_state(cause); });
    fmf_->attach();
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
        if (rebooting_ || safe_state_ || !fmf_) return;
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
    if (fmf_) {
      fmf::ApplicationPolicy app_policy;
      app_policy.on_faulty =
          policy::to_fmf_action(config_.policy->treatment.safety.on_faulty);
      app_policy.max_restarts = config_.policy->treatment.safety.max_restarts;
      fmf_->set_application_policy(railmon_->application(), app_policy);
    }
    mode_unit_->set_policy(config_.policy, engine_.now());
  }
}

void RailMonNode::start() {
  if (!ecu_.rte().finalized()) ecu_.rte().finalize();
  if (started_once_ && kernel().started()) {
    throw std::logic_error("RailMonNode: already started");
  }
  if (!started_once_) {
    wdg::ConfigChecker::enforce(
        watchdog_,
        [this](RunnableId id) {
          if (id == railmon_->duty_cycle_control()) {
            return config_.railmon.control_period;
          }
          if (id == railmon_->sample_sensor() ||
              id == railmon_->uplink_process()) {
            return config_.railmon.sample_period;
          }
          return sim::Duration::zero();
        },
        "RailMonNode");
  }
  started_once_ = true;
  boot();
}

void RailMonNode::software_reset() {
  ++resets_;
  if (fmf_) fmf_->persist();
  kernel().software_reset();
  watchdog_.reset(engine_.now());
  timers_.cancel_all();
  if (config_.reboot_delay.as_micros() > 0) {
    rebooting_ = true;
    timers_.add(engine_.schedule_in(config_.reboot_delay,
                                    [this] { boot_after_reset(); }));
    return;
  }
  boot_after_reset();
}

void RailMonNode::boot_after_reset() {
  rebooting_ = false;
  boot();
  if (fmf_) fmf_->begin_ecu_recovery_window(engine_.now());
}

void RailMonNode::arm_alarms() {
  kernel().set_rel_alarm(control_alarm_, control_ticks_, control_ticks_);
  apply_mode_scheduling(manager_->current());
  service_->arm();
}

void RailMonNode::apply_mode_scheduling(mode::PowerMode mode) {
  auto& kernel = ecu_.kernel();
  (void)kernel.cancel_alarm(sensor_alarm_);
  if (safe_state_) return;  // sensing chain stays parked
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

void RailMonNode::boot() {
  kernel().start();
  // Re-seeds the fault memory *and* the persisted power mode before
  // anything runs; the reseed listener re-applies the mode's overlay and
  // the node's scheduling contract, then arm_alarms() (idempotent: cancel
  // + re-arm) fixes up whatever the current mode demands.
  if (fmf_) fmf_->boot_from_nvm(engine_.now());
  arm_alarms();
  timers_.add(engine_.every(
      config_.watchdog.check_period,
      [this] {
        mode_unit_->cycle(engine_.now());
        if (csu_) csu_->cycle(engine_.now());
        if (psu_) psu_->cycle(engine_.now());
      },
      sim::EventPriority::kMonitor));
}

void RailMonNode::enter_safe_state(const fmf::ResetCause& cause) {
  if (safe_state_) return;
  safe_state_ = true;
  EASIS_LOG(util::LogLevel::kError, "validator")
      << "railmon safe state (" << fmf::to_string(cause.source)
      << "): duty cycle held, sensing chain parked";
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
  diag::DiagBackend backend;
  backend.dtcs = dtc_.get();
  backend.fmf = fmf_.get();
  backend.watchdog = &watchdog_;
  backend.ecu_reset = [this] {
    fmf::ResetCause cause;
    cause.source = fmf::ResetSource::kDiagnosticRequest;
    cause.time = engine_.now();
    cause.detail = "commanded ECUReset (diagnostic service 0x11)";
    if (fmf_) {
      fmf_->request_reset(std::move(cause), engine_.now());
      return;
    }
    software_reset();
  };
  backend.offline = [this] { return rebooting_; };
  if (config_.policy) {
    const std::uint32_t hash24 = policy::version_hash24(*config_.policy);
    const std::uint32_t version = config_.policy->version;
    backend.policy_hash = [hash24] { return hash24; };
    backend.policy_version = [version] { return version; };
  }
  backend.process = psu_.get();
  backend.nvm = nvm_;
  diag_ = std::make_unique<diag::DiagServer>(engine_, can, std::move(backend),
                                             std::move(config));
  // Power-mode identifiers: the workshop tester can verify which mode the
  // node believes it is in and which overlay its supervision is bound to.
  diag_->add_data_identifier(diag::kDidPowerMode, "power_mode", [this] {
    return static_cast<double>(static_cast<std::uint8_t>(manager_->current()));
  });
  diag_->add_data_identifier(
      diag::kDidModeOverlayHash, "mode_overlay_hash", [this] {
        return static_cast<double>(mode_unit_->active_overlay_hash24());
      });
  return *diag_;
}

}  // namespace easis::validator
