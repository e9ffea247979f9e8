// Watchdog self-supervision (paper §2/§4.4: "who watches the watchdog").
//
// The Software Watchdog is itself a task and can hang, starve, or corrupt
// its state like any other. This unit closes the loop with the ECU's
// hardware watchdog: the SW watchdog main function services the windowed
// HW timer through a challenge–response token derived from its own cycle
// counter. A hung or starved watchdog task stops servicing and the HW
// layer expires; a sequence-corrupted task presents a wrong token, which
// is refused — so the HW timer starves and expires just the same. Either
// way the failure is caught one layer below the failed monitor.
#pragma once

#include <cstdint>

#include "baseline/hw_watchdog.hpp"
#include "sim/engine.hpp"
#include "sim/time.hpp"

namespace easis::wdg {

struct SelfSupervisionConfig {
  /// HW watchdog timeout; must exceed the SW watchdog check period with
  /// margin for scheduling jitter (default: 5x a 10 ms check period).
  sim::Duration hw_timeout = sim::Duration::millis(50);
  /// Windowed mode lower bound; zero disables the early-kick check.
  sim::Duration window_min = sim::Duration::zero();
};

class WatchdogSelfSupervision {
 public:
  WatchdogSelfSupervision(sim::Engine& engine,
                          SelfSupervisionConfig config = {});

  /// The expected response for a given watchdog cycle count. The token
  /// binds each kick to fresh forward progress of the main function: a
  /// task replaying a stale cycle or running with corrupted sequencing
  /// state cannot produce an acceptable kick.
  [[nodiscard]] static std::uint8_t token_for(std::uint64_t cycle);

  /// Fires on HW expiry — wire this to the ECU reset path. The unit
  /// interposes on the callback to emit a telemetry event first.
  void set_expire_callback(baseline::HardwareWatchdog::ExpireCallback cb);

  void start() { hw_.start(); }
  void stop() { hw_.stop(); }

  /// Challenge–response service call from the SW watchdog main function.
  /// Wrong token or non-advancing cycle counter is refused (no kick), so
  /// the HW timer starves and expires.
  void service(std::uint64_t cycle, std::uint8_t token, sim::SimTime now);

  [[nodiscard]] baseline::HardwareWatchdog& hardware() { return hw_; }
  [[nodiscard]] std::uint32_t expirations() const { return hw_.expirations(); }
  [[nodiscard]] std::uint32_t token_violations() const {
    return token_violations_;
  }

 private:
  baseline::HardwareWatchdog hw_;
  bool any_accepted_ = false;
  std::uint64_t last_cycle_ = 0;
  std::uint32_t token_violations_ = 0;
};

}  // namespace easis::wdg
