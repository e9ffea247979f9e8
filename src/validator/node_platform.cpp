#include "validator/node_platform.hpp"

#include <stdexcept>
#include <utility>

#include "wdg/config_check.hpp"

namespace easis::validator {

NodePlatform::NodePlatform(sim::Engine& engine, std::string name,
                           const NodePlatformConfig& config)
    : engine_(engine),
      ecu_(engine, std::move(name)),
      watchdog_(config.watchdog),
      platform_(config) {
  // 1 ms system counter driving all periodic activations.
  os::CounterConfig counter_config;
  counter_config.name = "SystemTimer";
  counter_config.tick = sim::Duration::millis(1);
  counter_ = ecu_.kernel().create_counter(counter_config);
}

std::uint64_t NodePlatform::period_ticks(sim::Duration period) const {
  constexpr std::int64_t kTickMicros = 1000;  // 1 ms system counter
  const std::int64_t p = period.as_micros();
  if (p <= 0 || p % kTickMicros != 0) {
    throw std::invalid_argument(
        ecu_.name() + ": task periods must be positive multiples of 1ms");
  }
  return static_cast<std::uint64_t>(p / kTickMicros);
}

void NodePlatform::add_watchdog_service() {
  service_ = std::make_unique<wdg::WatchdogService>(
      ecu_.kernel(), ecu_.rte(), watchdog_, counter_,
      platform_.watchdog_service);
}

void NodePlatform::build_fault_memory(std::vector<std::string> frame_signals,
                                      std::size_t dtc_capacity) {
  if (!platform_.with_fmf) return;
  fmf_ = std::make_unique<fmf::FaultManagementFramework>(
      ecu_.rte(), watchdog_, [this] { software_reset(); }, platform_.fmf);
  dtc_ = std::make_unique<fmf::DtcStore>(
      ecu_.signals(), std::move(frame_signals), dtc_capacity);
  fmf_->attach_dtc_store(dtc_.get());
  if (platform_.with_nvm) {
    if (platform_.external_nvm != nullptr) {
      nvm_ = platform_.external_nvm;
    } else {
      owned_nvm_ = std::make_unique<fmf::NvmStore>(platform_.nvm_capacity);
      nvm_ = owned_nvm_.get();
    }
    fmf_->attach_nvm(nvm_);
  }
  // Transgression records ride in the NVM image once process supervision
  // is attached, whether before or after this point.
  fmf_->attach_transgression_store(
      [this](std::vector<wdg::TransgressionRecord>& records) {
        if (psu_) {
          psu_->persisted_records(records);
        } else {
          records.clear();
        }
      },
      [this](const std::vector<wdg::TransgressionRecord>& records) {
        if (psu_) psu_->restore_records(records);
      });
  fmf_->set_safe_state_hook(
      [this](const fmf::ResetCause&) { latch_safe_state(); });
  fmf_->attach();
}

wdg::ProcessSupervisionUnit& NodePlatform::attach_process_supervision() {
  if (!psu_) psu_ = std::make_unique<wdg::ProcessSupervisionUnit>(watchdog_);
  return *psu_;
}

policy::CheckSupervisionUnit* NodePlatform::supervise_checks(
    TaskId task, ApplicationId app) {
  if (csu_) return csu_.get();
  if (!platform_.policy || platform_.policy->checks.empty()) return nullptr;
  attach_process_supervision();
  csu_ = std::make_unique<policy::CheckSupervisionUnit>(
      watchdog_, *psu_, ecu_.signals(), task, app);
  for (const policy::CheckRule& rule : platform_.policy->checks) {
    csu_->add_rule(rule);
  }
  return csu_.get();
}

void NodePlatform::bind_treatment(ApplicationId app,
                                  const policy::RoleTreatment& role) {
  if (!fmf_) return;
  fmf::ApplicationPolicy app_policy;
  app_policy.on_faulty = policy::to_fmf_action(role.on_faulty);
  app_policy.max_restarts = role.max_restarts;
  fmf_->set_application_policy(app, app_policy);
}

void NodePlatform::cycle_process_supervision(sim::SimTime now) {
  if (csu_) csu_->cycle(now);
  if (psu_) psu_->cycle(now);
}

diag::DiagServer& NodePlatform::open_diag(
    bus::CanBus& can, diag::DiagServerConfig config,
    const wdg::EnvironmentSupervisionUnit* environment) {
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
  if (platform_.policy) {
    // The hash is content-derived and immutable for the node's lifetime,
    // so it is computed once, not per request.
    const std::uint32_t hash24 = policy::version_hash24(*platform_.policy);
    const std::uint32_t version = platform_.policy->version;
    backend.policy_hash = [hash24] { return hash24; };
    backend.policy_version = [version] { return version; };
  }
  backend.environment = environment;
  backend.process = psu_.get();
  backend.nvm = nvm_;
  diag_ = std::make_unique<diag::DiagServer>(engine_, can, std::move(backend),
                                             std::move(config));
  return *diag_;
}

void NodePlatform::start() {
  if (!ecu_.rte().finalized()) ecu_.rte().finalize();
  if (started_once_ && kernel().started()) {
    throw std::logic_error(ecu_.name() + ": already started");
  }
  if (!started_once_) {
    wdg::ConfigChecker::enforce(
        watchdog_, [this](RunnableId id) { return nominal_period_of(id); },
        ecu_.name());
  }
  started_once_ = true;
  boot();
}

void NodePlatform::software_reset() {
  ++resets_;
  // The reset-cause record and the DTC store must survive the teardown.
  if (fmf_) fmf_->persist();
  before_reset();
  kernel().software_reset();
  watchdog_.reset(engine_.now());
  timers_.cancel_all();
  if (platform_.reboot_delay.as_micros() > 0) {
    // Reboot blackout: the ECU is dark, nothing runs until the delayed
    // boot. A simulated environment keeps its state and resumes with it.
    rebooting_ = true;
    timers_.add(engine_.schedule_in(platform_.reboot_delay,
                                    [this] { boot_after_reset(); }));
    return;
  }
  boot_after_reset();
}

void NodePlatform::boot_after_reset() {
  rebooting_ = false;
  boot();
  // Post-reset recovery validation: the warm-up window supervises the
  // re-announcement of every monitored runnable (no-op when disabled).
  if (fmf_) fmf_->begin_ecu_recovery_window(engine_.now());
}

void NodePlatform::boot() {
  kernel().start();
  // Re-seed the fault memory from NVM before anything runs: the post-boot
  // FMF/DTC view continues where the pre-reset ECU left off.
  if (fmf_) fmf_->boot_from_nvm(engine_.now());
  boot_node();
}

void NodePlatform::latch_safe_state() {
  if (safe_state_) return;
  safe_state_ = true;
  enter_safe_state();
}

}  // namespace easis::validator
