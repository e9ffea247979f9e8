#include "apps/railmon.hpp"

#include <algorithm>

#include "apps/monitor_hypothesis.hpp"

namespace easis::apps {

RailMon::RailMon(rte::Rte& rte, rte::SignalBus& signals,
                 mode::PowerModeManager& manager, TaskId control_task,
                 TaskId sensor_task, RailMonConfig config)
    : signals_(signals),
      manager_(manager),
      config_(config),
      control_task_(control_task),
      sensor_task_(sensor_task) {
  app_ = rte.register_application("RailMon");
  const ComponentId cycler = rte.register_component(app_, "DutyCycler");
  const ComponentId chain = rte.register_component(app_, "AcquisitionChain");
  auto& kernel = rte.kernel();

  rte::RunnableSpec control_spec;
  control_spec.name = "DutyCycleControl";
  control_spec.execution_time = config_.control_cost;
  control_spec.body = [this, &kernel] { drive_duty_cycle(kernel.now()); };
  control_ = rte.register_runnable(cycler, std::move(control_spec));

  rte::RunnableSpec sensor_spec;
  sensor_spec.name = "SampleSensor";
  sensor_spec.execution_time = config_.sensor_cost;
  sensor_spec.body = [this, &kernel] {
    (void)signals_.read_or("env.vibration", 0.0);
    ++samples_;
    if (journal_depth_ < config_.journal_capacity) ++journal_depth_;
    signals_.publish("railmon.journal_depth",
                     static_cast<double>(journal_depth_), kernel.now());
  };
  sensor_ = rte.register_runnable(chain, std::move(sensor_spec));

  rte::RunnableSpec uplink_spec;
  uplink_spec.name = "UplinkProcess";
  uplink_spec.execution_time = config_.uplink_cost;
  uplink_spec.body = [this, &kernel] {
    // Store-and-forward: only the flash-committed backlog is uplinked,
    // and only while the radio is powered (Run and the wake storm). The
    // runnable still executes (and heartbeats) during FlashWrite — the
    // radio is idle, the task is not.
    const mode::PowerMode m = manager_.current();
    if (m == mode::PowerMode::kRun || m == mode::PowerMode::kWakeBurst) {
      const std::uint64_t batch =
          std::min<std::uint64_t>(committed_, config_.uplink_batch);
      committed_ -= batch;
      uplinked_ += batch;
    }
    signals_.publish("railmon.committed", static_cast<double>(committed_),
                     kernel.now());
    signals_.publish("railmon.uplinked", static_cast<double>(uplinked_),
                     kernel.now());
  };
  uplink_ = rte.register_runnable(chain, std::move(uplink_spec));

  rte.map_runnable(control_, control_task_);
  rte.map_runnable(sensor_, sensor_task_);
  rte.map_runnable(uplink_, sensor_task_);
}

void RailMon::drive_duty_cycle(sim::SimTime now) {
  if (duty_hold_ || manager_.transition_pending()) return;
  using mode::PowerMode;
  const sim::Duration dwell = manager_.dwell(now);
  switch (manager_.current()) {
    case PowerMode::kRun:
      if (dwell >= config_.run_dwell) {
        manager_.request(PowerMode::kFlashWrite, "journal_commit");
      }
      break;
    case PowerMode::kFlashWrite:
      if (!flash_stuck_ && dwell >= config_.flash_dwell) {
        manager_.request(PowerMode::kSleep, "commit_done");
      }
      break;
    case PowerMode::kSleep:
      if (!wake_suppressed_ && dwell >= config_.sleep_dwell) {
        manager_.request(PowerMode::kWakeBurst, "wake_timer");
      }
      break;
    case PowerMode::kWakeBurst:
      if (!burst_stuck_ && dwell >= config_.burst_dwell) {
        manager_.request(PowerMode::kRun, "burst_complete");
      }
      break;
    case PowerMode::kIdle:
      manager_.request(PowerMode::kRun, "duty_resume");
      break;
  }
}

void RailMon::commit_journal(sim::SimTime now) {
  committed_ += journal_depth_;
  journal_depth_ = 0;
  signals_.publish("railmon.journal_depth", 0.0, now);
  signals_.publish("railmon.committed", static_cast<double>(committed_),
                   now);
}

void RailMon::configure_watchdog(wdg::SoftwareWatchdog& watchdog) const {
  const sim::Duration check = watchdog.config().check_period;
  watchdog.add_runnable(derive_monitor(control_, control_task_, app_,
                                       "DutyCycleControl",
                                       config_.control_period, check,
                                       /*program_flow=*/false));
  watchdog.add_runnable(sensor_monitor_base(check));
  watchdog.add_runnable(uplink_monitor_base(check));
  // Permitted execution sequence of the sensing chain: sample -> uplink,
  // repeating (the controller runs on its own task, outside this table).
  watchdog.add_flow_entry_point(sensor_);
  watchdog.add_flow_edge(sensor_, uplink_);
  watchdog.add_flow_edge(uplink_, sensor_);
  // Sample-to-uplink deadline: nominal chain cost is ~0.32 ms; 5 ms keeps
  // headroom for controller preemption and the burst-rate interleaving.
  wdg::DeadlinePair pair;
  pair.name = "sample_to_uplink";
  pair.start = sensor_;
  pair.end = uplink_;
  pair.min = sim::Duration::zero();
  pair.max = sim::Duration::millis(5);
  watchdog.add_deadline_pair(pair);
}

wdg::RunnableMonitor RailMon::sensor_monitor_base(
    sim::Duration check_period) const {
  return derive_monitor(sensor_, sensor_task_, app_, "SampleSensor",
                        config_.sample_period, check_period);
}

wdg::RunnableMonitor RailMon::uplink_monitor_base(
    sim::Duration check_period) const {
  return derive_monitor(uplink_, sensor_task_, app_, "UplinkProcess",
                        config_.sample_period, check_period);
}

}  // namespace easis::apps
