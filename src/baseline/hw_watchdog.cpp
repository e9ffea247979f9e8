#include "baseline/hw_watchdog.hpp"

#include <stdexcept>

namespace easis::baseline {

HardwareWatchdog::HardwareWatchdog(sim::Engine& engine, sim::Duration timeout,
                                   sim::Duration window_min)
    : engine_(engine), timeout_(timeout), window_min_(window_min) {
  if (timeout <= sim::Duration::zero()) {
    throw std::invalid_argument("HardwareWatchdog: timeout must be positive");
  }
  if (window_min < sim::Duration::zero() || window_min >= timeout) {
    throw std::invalid_argument("HardwareWatchdog: bad window");
  }
}

void HardwareWatchdog::start() {
  running_ = true;
  last_kick_ = engine_.now();
  arm();
}

void HardwareWatchdog::stop() {
  running_ = false;
  engine_.cancel(expiry_);
}

void HardwareWatchdog::arm() {
  // A one-shot: every expiry and every kick re-arms it.
  engine_.cancel(expiry_);
  expiry_ = engine_.schedule_in(timeout_, [this] { expire(); },
                                sim::EventPriority::kMonitor);
}

void HardwareWatchdog::expire() {
  ++expirations_;
  if (on_expire_) on_expire_(engine_.now());
  // A real watchdog resets the ECU; re-arm for continued monitoring, after
  // the callback, so the next expiry queues behind all it scheduled.
  if (!running_) return;
  last_kick_ = engine_.now();
  arm();
}

void HardwareWatchdog::kick() {
  if (!running_) return;
  const sim::Duration since = engine_.now() - last_kick_;
  if (window_min_ > sim::Duration::zero() && since < window_min_) {
    ++early_kicks_;
    if (on_expire_) on_expire_(engine_.now());
  }
  last_kick_ = engine_.now();
  arm();
}

HardwareWatchdogService::HardwareWatchdogService(os::Kernel& kernel,
                                                 HardwareWatchdog& watchdog,
                                                 CounterId counter,
                                                 os::Priority priority,
                                                 std::uint64_t period_ticks)
    : kernel_(kernel), period_ticks_(period_ticks) {
  os::TaskConfig config;
  config.name = "HWWD_Kicker";
  config.priority = priority;
  task_ = kernel_.create_task(config);
  kernel_.set_job_factory(task_, [&watchdog](os::Job& job) {
    os::Segment& segment = job.emplace_back();
    segment.cost = sim::Duration::micros(5);
    segment.on_complete = [&watchdog] { watchdog.kick(); };
  });
  alarm_ = kernel_.create_alarm(counter, os::AlarmActionActivateTask{task_},
                                "HWWD_Alarm");
}

void HardwareWatchdogService::arm() {
  kernel_.set_rel_alarm(alarm_, period_ticks_, period_ticks_);
}

}  // namespace easis::baseline
