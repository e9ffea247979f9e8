// ECU hardware watchdog baseline (paper §2: "a hardware watchdog treats
// the embedded software as a whole").
//
// A windowed watchdog timer: it must be kicked before `timeout` elapses
// (and, in window mode, not earlier than `window_min` after the previous
// kick). The companion service installs a low-priority kicker task so the
// watchdog only sees whether the ECU as a whole still schedules background
// work — exactly the coarse granularity the paper argues is insufficient.
#pragma once

#include <cstdint>
#include <functional>

#include "os/kernel.hpp"
#include "sim/engine.hpp"
#include "sim/time.hpp"

namespace easis::baseline {

class HardwareWatchdog {
 public:
  using ExpireCallback = std::function<void(sim::SimTime)>;

  /// `window_min` of zero disables the early-kick window check.
  HardwareWatchdog(sim::Engine& engine, sim::Duration timeout,
                   sim::Duration window_min = sim::Duration::zero());

  void set_expire_callback(ExpireCallback cb) { on_expire_ = std::move(cb); }

  void start();
  void stop();
  /// Services the watchdog. Kicking outside the permitted window counts as
  /// a violation (and triggers the expire callback in window mode).
  void kick();

  [[nodiscard]] bool running() const { return running_; }
  [[nodiscard]] std::uint32_t expirations() const { return expirations_; }
  [[nodiscard]] std::uint32_t early_kicks() const { return early_kicks_; }

 private:
  sim::Engine& engine_;
  sim::Duration timeout_;
  sim::Duration window_min_;
  ExpireCallback on_expire_;
  bool running_ = false;
  sim::SimTime last_kick_;
  sim::EventId expiry_ = 0;  // the pending expiry
  std::uint32_t expirations_ = 0;
  std::uint32_t early_kicks_ = 0;

  void arm();
  void expire();
};

/// Installs the conventional servicing pattern: a lowest-priority periodic
/// task that kicks the hardware watchdog.
class HardwareWatchdogService {
 public:
  HardwareWatchdogService(os::Kernel& kernel, HardwareWatchdog& watchdog,
                          CounterId counter, os::Priority priority,
                          std::uint64_t period_ticks);

  /// Arms the kicker alarm; call after kernel start.
  void arm();

  [[nodiscard]] TaskId task() const { return task_; }

 private:
  os::Kernel& kernel_;
  AlarmId alarm_;
  TaskId task_;
  std::uint64_t period_ticks_;
};

}  // namespace easis::baseline
