#include "fmf/fmf.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "profile/profiler.hpp"
#include "telemetry/event_bus.hpp"

namespace easis::fmf {

namespace {

void emit_fmf_event(telemetry::EventKind kind, sim::SimTime now,
                    std::string detail,
                    ApplicationId app = ApplicationId{},
                    TaskId task = TaskId{}) {
  if (!telemetry::enabled()) return;
  telemetry::Event event;
  event.time = now;
  event.component = telemetry::Component::kFmf;
  event.kind = kind;
  event.task = task;
  event.application = app;
  event.detail = std::move(detail);
  telemetry::emit(std::move(event));
}

/// Moves an engaged freeze frame into `spare` (keeping its storage for
/// reuse) and disengages it.
void park_frame(std::optional<FreezeFrame>& frame,
                std::vector<FreezeFrame>& spare) {
  if (!frame) return;
  spare.push_back(std::move(*frame));
  frame.reset();
}

/// Copies `entry` into the image slot `slot`, reusing the slot's freeze
/// frame storage, or a parked one, instead of allocating a new frame.
void refill(DtcEntry& slot, const DtcEntry& entry,
            std::vector<FreezeFrame>& spare) {
  if (!entry.freeze_frame) {
    park_frame(slot.freeze_frame, spare);
  } else if (!slot.freeze_frame && !spare.empty()) {
    slot.freeze_frame.emplace(std::move(spare.back()));
    spare.pop_back();
  }
  slot = entry;
}

/// Eviction ladder (lowest priority first): the freeze frames of passive
/// DTCs, then passive DTCs, then the freeze frames of active DTCs, then
/// active DTCs — each oldest `last_seen` first, lowest index on ties —
/// then the oldest reset causes down to the newest one. The newest reset
/// cause and the transgression records are never dropped: they explain
/// why the ECU is in the state it is in. Walks the ladder on exact byte
/// sizes until the image fits `nvm` (or the ladder runs out), applies the
/// victims in one pass and returns the number of evictions. `order` and
/// `dropped` are the caller's scratch, reused across calls; evicted freeze
/// frames are parked in `spare_frames` for the next refill.
std::uint32_t evict_to_fit(NvmImage& image, const NvmStore& nvm,
                           std::vector<std::size_t>& order,
                           std::vector<bool>& dropped,
                           std::vector<FreezeFrame>& spare_frames) {
  std::size_t size = serialized_size(image);
  if (nvm.fits(size)) return 0;
  order.resize(image.dtcs.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  // Index as the tie-break: the order of a stable sort by last_seen,
  // without its temporary buffer.
  std::sort(order.begin(), order.end(),
            [&image](std::size_t a, std::size_t b) {
              const sim::SimTime ta = image.dtcs[a].last_seen;
              const sim::SimTime tb = image.dtcs[b].last_seen;
              return ta < tb || (ta == tb && a < b);
            });
  dropped.assign(image.dtcs.size(), false);
  std::size_t trimmed = 0;  // reset causes dropped from the front
  std::uint32_t evictions = 0;
  const auto evict = [&](std::size_t bytes) {
    size -= bytes;
    ++evictions;
    return nvm.fits(size);
  };
  [&] {
    for (const bool active : {false, true}) {
      for (const std::size_t i : order) {
        std::optional<FreezeFrame>& frame = image.dtcs[i].freeze_frame;
        if (image.dtcs[i].active != active || !frame) continue;
        const std::size_t bytes = serialized_size(*frame);
        park_frame(frame, spare_frames);
        if (evict(bytes)) return;
      }
      for (const std::size_t i : order) {
        if (image.dtcs[i].active != active) continue;
        dropped[i] = true;
        if (evict(serialized_size(image.dtcs[i]))) return;
      }
    }
    while (image.reset_history.size() - trimmed > 1) {
      if (evict(serialized_size(image.reset_history[trimmed++]))) return;
    }
  }();
  std::size_t kept = 0;
  for (std::size_t i = 0; i < image.dtcs.size(); ++i) {
    if (dropped[i]) continue;
    if (kept != i) image.dtcs[kept] = std::move(image.dtcs[i]);
    ++kept;
  }
  image.dtcs.resize(kept);
  image.reset_history.erase(
      image.reset_history.begin(),
      image.reset_history.begin() + static_cast<std::ptrdiff_t>(trimmed));
  return evictions;
}

}  // namespace

FaultManagementFramework::FaultManagementFramework(
    rte::Rte& rte, wdg::SoftwareWatchdog& watchdog,
    std::function<void()> ecu_reset, FmfConfig config)
    : rte_(rte),
      watchdog_(watchdog),
      ecu_reset_(std::move(ecu_reset)),
      config_(config),
      log_(config.fault_log_capacity) {}

void FaultManagementFramework::attach() {
  if (attached_) throw std::logic_error("FMF: already attached");
  attached_ = true;
  watchdog_.add_error_listener(
      [this](const wdg::ErrorReport& report) { on_error(report); });
  watchdog_.add_application_state_listener(
      [this](ApplicationId app, wdg::Health health, sim::SimTime now) {
        on_application_state(app, health, now);
      });
  watchdog_.add_ecu_state_listener(
      [this](wdg::Health health, sim::SimTime now) {
        on_ecu_state(health, now);
      });
  watchdog_.recovery_unit().set_result_callback(
      [this](bool ok, ApplicationId app, const wdg::ErrorReport& cause,
             sim::SimTime now) { on_recovery_result(ok, app, cause, now); });
}

void FaultManagementFramework::set_application_policy(
    ApplicationId app, ApplicationPolicy policy) {
  applications_[app].policy = policy;
}

void FaultManagementFramework::add_fault_listener(FaultListener listener) {
  listeners_.push_back(std::move(listener));
}

const FaultManagementFramework::Application&
FaultManagementFramework::application(ApplicationId app) const {
  static const Application kNone;
  auto it = applications_.find(app);
  return it == applications_.end() ? kNone : it->second;
}

void FaultManagementFramework::record_fault(const FaultRecord& record) {
  log_.push(record);
  if (dtc_store_ != nullptr) dtc_store_->record(record.report);
  // Inform the applications about the detected fault.
  for (const auto& listener : listeners_) listener(record);
}

void FaultManagementFramework::on_error(const wdg::ErrorReport& report) {
  EASIS_PROFILE_SPAN("fmf.react");
  ++faults_;
  FaultRecord record{"swd", report, watchdog_.severity(report.type)};
  last_fault_ = record;  // candidate reset-cause evidence
  record_fault(record);
}

void FaultManagementFramework::on_application_state(ApplicationId app,
                                                    wdg::Health health,
                                                    sim::SimTime now) {
  if (health != wdg::Health::kFaulty) {
    // Application healed: its DTCs become passive (history retained).
    if (dtc_store_ != nullptr) dtc_store_->set_application_passive(app);
    return;
  }
  // If the global ECU state is faulty the ECU-level treatment takes over
  // (the ECU-state callback fires after task/application callbacks).
  if (watchdog_.ecu_health() == wdg::Health::kFaulty) return;
  // In the latched storm state the node is parked in limp-home; per-app
  // treatments would fight the safe-state configuration.
  if (storm_latched_) return;

  const ApplicationPolicy policy = application(app).policy;
  switch (policy.on_faulty) {
    case TreatmentAction::kNone:
      break;
    case TreatmentAction::kRestart:
      if (restart_pressure(app, now) < policy.max_restarts) {
        restart_application(app, now);
      } else {
        terminate_application(app, now);
      }
      break;
    case TreatmentAction::kTerminate:
      terminate_application(app, now);
      break;
    case TreatmentAction::kDegrade:
      degrade_application(app, now);
      break;
    case TreatmentAction::kSafeState: {
      ResetCause cause;
      cause.source = ResetSource::kPolicySafeState;
      cause.application = app;
      cause.time = now;
      if (last_fault_) {
        cause.task = last_fault_->report.task;
        cause.error = last_fault_->report.type;
      }
      cause.detail = "policy treatment: safe state for application " +
                     rte_.application_name(app);
      request_safe_state(std::move(cause), now);
      break;
    }
  }
}

void FaultManagementFramework::on_ecu_state(wdg::Health health,
                                            sim::SimTime now) {
  if (health != wdg::Health::kFaulty) return;
  ResetCause cause;
  cause.source = ResetSource::kEcuFaulty;
  cause.time = now;
  if (last_fault_) {
    cause.task = last_fault_->report.task;
    cause.application = last_fault_->report.application;
    cause.error = last_fault_->report.type;
    cause.detail = last_fault_->report.detail;
  }
  if (cause.detail.empty()) {
    cause.detail = std::string("global ECU state faulty (") +
                   std::string(wdg::to_string(cause.error)) + ")";
  }
  request_reset(std::move(cause), now);
}

void FaultManagementFramework::request_reset(ResetCause cause,
                                             sim::SimTime now) {
  emit_fmf_event(telemetry::EventKind::kResetRequested, now,
                 std::string(to_string(cause.source)) +
                     (cause.detail.empty() ? "" : ": " + cause.detail),
                 cause.application, cause.task);
  if (storm_latched_) {
    emit_fmf_event(telemetry::EventKind::kResetRefused, now,
                   "reboot storm latched; staying in safe state",
                   cause.application, cause.task);
    return;
  }
  if (recent_resets(now) >= config_.storm_reset_limit) {
    latch_storm(cause, now);
    return;
  }
  if (ecu_resets_ >= config_.max_ecu_resets) {
    emit_fmf_event(telemetry::EventKind::kResetRefused, now,
                   "reset budget exhausted", cause.application, cause.task);
    return;
  }
  ++ecu_resets_;
  emit_fmf_event(telemetry::EventKind::kResetPerformed, now,
                 "reset #" + std::to_string(ecu_resets_) + " (" +
                     std::string(to_string(cause.source)) + ")",
                 cause.application, cause.task);
  record_reset_cause(std::move(cause));
  // The reset-cause record must survive the reset it explains.
  if (persist()) {
    emit_fmf_event(telemetry::EventKind::kNvmCommit, now,
                   "reset-cause record persisted");
  }
  if (ecu_reset_) ecu_reset_();
}

void FaultManagementFramework::latch_storm(const ResetCause& cause,
                                           sim::SimTime now) {
  // Document the decision: a reset-cause record (not a performed reset)
  // and a fault-log entry / DTC explaining why the ECU is parked.
  ResetCause decision = cause;
  decision.time = now;
  decision.detail = "reboot storm latched after " +
                    std::to_string(config_.storm_reset_limit) +
                    " resets; limp-home (" + decision.detail + ")";
  park_in_safe_state(decision, "fmf.storm", "storm latch persisted");
}

void FaultManagementFramework::request_safe_state(ResetCause cause,
                                                  sim::SimTime now) {
  if (storm_latched_) return;  // already parked; the latch is terminal
  ResetCause decision = std::move(cause);
  decision.time = now;
  park_in_safe_state(decision, "fmf.shutdown",
                     "safe-state decision persisted");
}

void FaultManagementFramework::park_in_safe_state(const ResetCause& decision,
                                                  std::string source,
                                                  std::string commit_note) {
  storm_latched_ = true;
  record_reset_cause(decision);
  wdg::ErrorReport report;
  report.task = decision.task;
  report.application = decision.application;
  report.type = decision.error;
  report.time = decision.time;
  report.detail = decision.detail;
  record_fault({std::move(source), std::move(report),
                wdg::Severity::kCritical});
  emit_fmf_event(telemetry::EventKind::kStormLatched, decision.time,
                 decision.detail, decision.application, decision.task);
  if (persist()) {  // the latch itself must survive power cycles
    emit_fmf_event(telemetry::EventKind::kNvmCommit, decision.time,
                   std::move(commit_note));
  }
  if (safe_state_hook_) safe_state_hook_(decision);
}

void FaultManagementFramework::record_reset_cause(ResetCause cause) {
  reset_history_.push_back(cause);
  if (reset_history_.size() > kResetHistoryDepth) {
    reset_history_.erase(reset_history_.begin());
  }
  last_reset_cause_ = std::move(cause);
}

std::uint32_t FaultManagementFramework::recent_resets(sim::SimTime now) const {
  std::uint32_t count = 0;
  for (const ResetCause& cause : reset_history_) {
    if (now - cause.time < config_.storm_window) ++count;
  }
  return count;
}

void FaultManagementFramework::clear_monitoring_state(ApplicationId app,
                                                      sim::SimTime now) {
  // Also zeroes the HBM counters of the tasks' runnables.
  for (TaskId task : rte_.tasks_of_application(app)) {
    watchdog_.clear_task_state(task, now);
  }
}

void FaultManagementFramework::restart_application(ApplicationId app,
                                                   sim::SimTime now) {
  std::vector<sim::SimTime>& restarts = applications_[app].restarts;
  restarts.push_back(now);
  emit_fmf_event(telemetry::EventKind::kTreatmentAction, now,
                 "restart " + rte_.application_name(app) + " (#" +
                     std::to_string(restarts.size()) + ")",
                 app);
  rte_.restart_application(app);
  // Clear monitoring state so the restarted application starts clean.
  clear_monitoring_state(app, now);
  // Validate the treatment: the restarted runnables must re-announce inside
  // the warm-up window or the FMF escalates immediately.
  if (config_.recovery_warmup_cycles > 0) {
    std::vector<RunnableId> required;
    for (RunnableId runnable : rte_.runnables_of_application(app)) {
      if (watchdog_.heartbeat_unit().monitors(runnable) &&
          watchdog_.activation_status(runnable) &&
          watchdog_.heartbeat_unit().config(runnable).monitor_aliveness) {
        required.push_back(runnable);
      }
    }
    watchdog_.recovery_unit().begin(std::move(required), app,
                                    config_.recovery_warmup_cycles, now);
  }
}

void FaultManagementFramework::begin_ecu_recovery_window(sim::SimTime now) {
  if (config_.recovery_warmup_cycles == 0) return;
  std::vector<RunnableId> required;
  for (RunnableId runnable :
       watchdog_.heartbeat_unit().monitored_runnables()) {
    // Sporadic runnables (arrival-rate-only hypotheses) cannot be required
    // to re-announce within a fixed warm-up window.
    if (watchdog_.activation_status(runnable) &&
        watchdog_.heartbeat_unit().config(runnable).monitor_aliveness) {
      required.push_back(runnable);
    }
  }
  watchdog_.recovery_unit().begin(std::move(required), ApplicationId{},
                                  config_.recovery_warmup_cycles, now);
}

void FaultManagementFramework::on_recovery_result(
    bool ok, ApplicationId app, const wdg::ErrorReport& cause,
    sim::SimTime now) {
  if (ok) return;
  record_fault({"fmf.recovery", cause, wdg::Severity::kCritical});
  if (app.valid()) {
    // The restart demonstrably did not fix it; skip the remaining restart
    // budget and terminate right away.
    terminate_application(app, now);
    return;
  }
  ResetCause reset_cause;
  reset_cause.source = ResetSource::kRecoveryFailure;
  reset_cause.task = cause.task;
  reset_cause.application = cause.application;
  reset_cause.error = cause.type;
  reset_cause.time = now;
  reset_cause.detail = cause.detail.empty()
                           ? "post-reset recovery validation failed"
                           : "recovery validation: " + cause.detail;
  request_reset(std::move(reset_cause), now);
}

void FaultManagementFramework::set_degraded_mode(ApplicationId app,
                                                 std::function<void()> enter,
                                                 std::function<void()> exit) {
  DegradedMode mode;
  mode.enter = std::move(enter);
  mode.exit = std::move(exit);
  applications_[app].degraded = std::move(mode);
}

void FaultManagementFramework::degrade_application(ApplicationId app,
                                                   sim::SimTime now) {
  auto it = applications_.find(app);
  if (it == applications_.end() || !it->second.degraded.enter) {
    // No degraded mode registered: fall back to restart semantics.
    restart_application(app, now);
    return;
  }
  DegradedMode& mode = it->second.degraded;
  if (mode.active) {
    // Fault while already degraded: the reconfiguration did not help.
    terminate_application(app, now);
    return;
  }
  mode.active = true;
  ++mode.entries;
  emit_fmf_event(telemetry::EventKind::kTreatmentAction, now,
                 "degrade " + rte_.application_name(app), app);
  mode.enter();
  clear_monitoring_state(app, now);
}

void FaultManagementFramework::recover_application(ApplicationId app,
                                                   sim::SimTime now) {
  auto it = applications_.find(app);
  if (it == applications_.end() || !it->second.degraded.active) return;
  DegradedMode& mode = it->second.degraded;
  mode.active = false;
  emit_fmf_event(telemetry::EventKind::kTreatmentAction, now,
                 "recover " + rte_.application_name(app) +
                     " from degraded mode",
                 app);
  if (mode.exit) mode.exit();
  clear_monitoring_state(app, now);
}

void FaultManagementFramework::terminate_application(ApplicationId app,
                                                     sim::SimTime now) {
  ++applications_[app].terminations;
  emit_fmf_event(telemetry::EventKind::kTreatmentAction, now,
                 "terminate " + rte_.application_name(app), app);
  // Deactivate monitoring first so the dead runnables do not keep
  // generating aliveness errors.
  watchdog_.set_application_active(app, false);
  for (TaskId task : rte_.tasks_of_application(app)) {
    watchdog_.clear_task_state(task, now);
  }
  rte_.set_application_enabled(app, false);
}

bool FaultManagementFramework::persist() {
  if (nvm_ == nullptr) return false;
  // Refilled in place: copy assignment reuses the previous commit's
  // element storage and evicted freeze frames wait in spare_frames_, so a
  // steady image allocates nothing.
  NvmImage& image = image_;
  image.reset_count = ecu_resets_;
  image.storm_latched = storm_latched_;
  image.reset_history.assign(reset_history_.begin(), reset_history_.end());
  std::size_t dtcs = 0;
  if (dtc_store_ != nullptr) {
    dtc_store_->for_each([this, &image, &dtcs](const DtcEntry& entry) {
      if (dtcs == image.dtcs.size()) image.dtcs.emplace_back();
      refill(image.dtcs[dtcs++], entry, spare_frames_);
    });
  }
  for (std::size_t i = dtcs; i < image.dtcs.size(); ++i) {
    park_frame(image.dtcs[i].freeze_frame, spare_frames_);
  }
  image.dtcs.resize(dtcs);
  if (transgression_snapshot_) {
    transgression_snapshot_(image.transgressions);
  } else {
    image.transgressions.clear();
  }
  if (power_mode_snapshot_) {
    image.power_mode = power_mode_snapshot_();
  } else {
    image.power_mode.clear();
  }
  // Flash full: degrade gracefully, lowest-priority entry first. Each
  // eviction stands for one commit the store would have refused.
  const std::uint32_t evicted =
      evict_to_fit(image, *nvm_, evict_order_, evict_dropped_, spare_frames_);
  nvm_evictions_ += evicted;
  nvm_->count_overflows(evicted);
  const std::uint32_t overflows_seen = nvm_->overflows();
  if (nvm_->commit(image)) return true;
  // A refusal that is no overflow is a wear-out or transient write fault:
  // nothing to evict will help.
  if (nvm_->overflows() == overflows_seen) ++nvm_write_failures_;
  return false;
}

void FaultManagementFramework::boot_from_nvm(sim::SimTime now) {
  if (nvm_ == nullptr) return;
  const NvmStore::LoadResult result = nvm_->load();
  if (result.image) {
    const NvmImage& image = *result.image;
    if (image.reset_count > ecu_resets_) ecu_resets_ = image.reset_count;
    reset_history_ = image.reset_history;
    if (!reset_history_.empty()) last_reset_cause_ = reset_history_.back();
    if (dtc_store_ != nullptr) dtc_store_->restore(image.dtcs);
    if (transgression_restore_ && !image.transgressions.empty()) {
      transgression_restore_(image.transgressions);
    }
    if (power_mode_restore_ && !image.power_mode.empty()) {
      power_mode_restore_(image.power_mode);
    }
    emit_fmf_event(telemetry::EventKind::kNvmRestore, now,
                   "restored " + std::to_string(image.reset_count) +
                       " reset(s), " + std::to_string(image.dtcs.size()) +
                       " DTC(s), " +
                       std::to_string(image.transgressions.size()) +
                       " transgression record(s), storm " +
                       (image.storm_latched ? "latched" : "clear"));
    if (image.storm_latched && !storm_latched_) {
      // The latch is persistent: a power cycle must not re-enter the
      // naive reset loop. Re-enter the safe state right at boot.
      storm_latched_ = true;
      if (safe_state_hook_) {
        safe_state_hook_(last_reset_cause_ ? *last_reset_cause_
                                           : ResetCause{});
      }
    }
  }
  if (result.corruption_detected) {
    // Report *after* the restore: the corruption DTC must not be wiped by
    // re-seeding the store from the surviving bank.
    wdg::ErrorReport report;
    report.type = wdg::ErrorType::kNvmCorruption;
    report.time = now;
    report.detail = result.detail;
    watchdog_.report_external_error(std::move(report));
  }
}

void FaultManagementFramework::write_diagnostics(std::ostream& out) const {
  out << "FMF fault memory: " << ecu_resets_ << " ECU resets, storm "
      << (storm_latched_ ? "LATCHED" : "clear") << '\n';
  if (last_reset_cause_ && last_reset_cause_->source != ResetSource::kNone) {
    const ResetCause& cause = *last_reset_cause_;
    out << "  last reset cause: " << to_string(cause.source) << " task "
        << cause.task << " app" << cause.application << ' '
        << wdg::to_string(cause.error) << " at " << cause.time.as_millis()
        << " ms: " << cause.detail << '\n';
  }
  for (const ResetCause& cause : reset_history_) {
    out << "  reset @" << cause.time.as_millis() << " ms  "
        << to_string(cause.source) << "  " << wdg::to_string(cause.error)
        << "  " << cause.detail << '\n';
  }
  if (dtc_store_ != nullptr) dtc_store_->write(out);
}

std::uint32_t FaultManagementFramework::restart_pressure(
    ApplicationId app, sim::SimTime now) const {
  if (config_.restart_aging.as_micros() <= 0) return restarts_performed(app);
  std::uint32_t count = 0;
  for (sim::SimTime t : application(app).restarts) {
    if (now - t < config_.restart_aging) ++count;
  }
  return count;
}

}  // namespace easis::fmf
