#include "wdg/recovery.hpp"

#include "telemetry/event_bus.hpp"

namespace easis::wdg {

void RecoverySupervisionUnit::begin(std::vector<RunnableId> required,
                                    ApplicationId scope_app,
                                    std::uint32_t cycles, sim::SimTime now) {
  active_ = true;
  scope_app_ = scope_app;
  required_ = std::move(required);
  announced_.clear();
  cycles_left_ = cycles;
  ++started_;
  if (telemetry::enabled()) {
    telemetry::Event event;
    event.time = now;
    event.component = telemetry::Component::kRecoveryUnit;
    event.kind = telemetry::EventKind::kRecoveryWindowOpened;
    event.application = scope_app;
    event.detail = std::to_string(required_.size()) + " runnables, " +
                   std::to_string(cycles) + " cycles";
    telemetry::emit(std::move(event));
  }
}

void RecoverySupervisionUnit::on_heartbeat(RunnableId runnable) {
  if (!active_) return;
  announced_.insert(runnable);
}

void RecoverySupervisionUnit::on_error(const ErrorReport& report,
                                       sim::SimTime now) {
  if (!active_) return;
  finish(false, report, now);
}

void RecoverySupervisionUnit::on_cycle(sim::SimTime now) {
  if (!active_) return;
  if (cycles_left_ > 0 && --cycles_left_ > 0) return;
  // Window expired: every required runnable must have re-announced.
  for (RunnableId id : required_) {
    if (!announced_.contains(id)) {
      ErrorReport cause;
      cause.runnable = id;
      cause.application = scope_app_;
      cause.type = ErrorType::kAliveness;
      cause.time = now;
      cause.detail = "no heartbeat re-announcement inside warm-up window";
      finish(false, cause, now);
      return;
    }
  }
  ErrorReport none;
  none.time = now;
  finish(true, none, now);
}

void RecoverySupervisionUnit::finish(bool ok, const ErrorReport& cause,
                                     sim::SimTime now) {
  active_ = false;
  if (ok) {
    ++passed_;
  } else {
    ++failed_;
  }
  if (telemetry::enabled()) {
    telemetry::Event event;
    event.time = now;
    event.component = telemetry::Component::kRecoveryUnit;
    event.kind = telemetry::EventKind::kRecoveryResult;
    event.runnable = cause.runnable;
    event.task = cause.task;
    event.application = scope_app_;
    event.detail =
        ok ? "passed" : "failed: " + std::string(to_string(cause.type)) +
                            (cause.detail.empty() ? "" : " — " + cause.detail);
    telemetry::emit(std::move(event));
  }
  if (callback_) callback_(ok, scope_app_, cause, now);
}

}  // namespace easis::wdg
