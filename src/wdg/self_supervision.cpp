#include "wdg/self_supervision.hpp"

#include "util/crc8.hpp"
#include "telemetry/event_bus.hpp"

namespace easis::wdg {

WatchdogSelfSupervision::WatchdogSelfSupervision(sim::Engine& engine,
                                                 SelfSupervisionConfig config)
    : hw_(engine, config.hw_timeout, config.window_min) {}

std::uint8_t WatchdogSelfSupervision::token_for(std::uint64_t cycle) {
  std::uint8_t bytes[8];
  for (std::size_t i = 0; i < 8; ++i) {
    bytes[i] = static_cast<std::uint8_t>(cycle >> (8 * i));
  }
  return util::crc8_j1850(bytes, sizeof bytes);
}

void WatchdogSelfSupervision::set_expire_callback(
    baseline::HardwareWatchdog::ExpireCallback cb) {
  hw_.set_expire_callback(
      [cb = std::move(cb)](sim::SimTime now) {
        if (telemetry::enabled()) {
          telemetry::Event event;
          event.time = now;
          event.component = telemetry::Component::kSelfSupervision;
          event.kind = telemetry::EventKind::kHwWatchdogExpired;
          event.detail = "hardware watchdog expired";
          telemetry::emit(std::move(event));
        }
        if (cb) cb(now);
      });
}

void WatchdogSelfSupervision::service(std::uint64_t cycle, std::uint8_t token,
                                      sim::SimTime now) {
  const bool stale = any_accepted_ && cycle <= last_cycle_;
  if (stale || token != token_for(cycle)) {
    ++token_violations_;
    if (telemetry::enabled()) {
      telemetry::Event event;
      event.time = now;
      event.component = telemetry::Component::kSelfSupervision;
      event.kind = telemetry::EventKind::kTokenViolation;
      event.detail = stale ? "cycle counter did not advance"
                           : "bad response token";
      telemetry::emit(std::move(event));
    }
    return;  // deliberately no kick — let the HW timer starve
  }
  any_accepted_ = true;
  last_cycle_ = cycle;
  hw_.kick();
}

}  // namespace easis::wdg
