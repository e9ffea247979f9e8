#include "inject/injector.hpp"

#include <memory>
#include <stdexcept>
#include <utility>

#include "telemetry/event_bus.hpp"

namespace easis::inject {

namespace {

void emit_injection_event(telemetry::EventKind kind,
                          const Injection& injection, sim::SimTime now) {
  if (!telemetry::enabled()) return;
  telemetry::Event event;
  event.time = now;
  event.component = telemetry::Component::kInjector;
  event.kind = kind;
  event.injection = injection.id;
  event.detail = injection.name;
  telemetry::emit(std::move(event));
}

}  // namespace

void repeat_while_applied(Injection& inj, sim::Engine& engine,
                          sim::Duration period, std::function<void()> action) {
  auto timer = std::make_shared<sim::Timer>();
  inj.apply = [&engine, period, action = std::move(action), timer,
               apply = std::move(inj.apply)] {
    if (apply) apply();
    action();
    *timer = engine.every(period, action);
  };
  inj.revert = [timer, revert = std::move(inj.revert)] {
    if (revert) revert();
    timer->cancel();
  };
}

void ErrorInjector::add(Injection injection) {
  if (armed_) throw std::logic_error("ErrorInjector: already armed");
  injection.id = InjectionId(static_cast<std::uint32_t>(injections_.size()));
  injections_.push_back(std::move(injection));
}

void ErrorInjector::arm() {
  if (armed_) throw std::logic_error("ErrorInjector: already armed");
  armed_ = true;
  for (const Injection& injection : injections_) {
    emit_injection_event(telemetry::EventKind::kFaultArmed, injection,
                         engine_.now());
    engine_.schedule_at(
        injection.start,
        [this, &injection] {
          ++applied_;
          emit_injection_event(telemetry::EventKind::kFaultApplied, injection,
                               engine_.now());
          if (injection.apply) injection.apply();
          if (injection.duration > sim::Duration::zero() &&
              injection.revert) {
            engine_.schedule_in(injection.duration, [this, &injection] {
              ++reverted_;
              emit_injection_event(telemetry::EventKind::kFaultReverted,
                                   injection, engine_.now());
              injection.revert();
            });
          }
        },
        sim::EventPriority::kMonitor);
  }
}

}  // namespace easis::inject
