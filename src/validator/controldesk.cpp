#include "validator/controldesk.hpp"

#include <memory>
#include <stdexcept>

namespace easis::validator {

ControlDesk::ControlDesk(sim::Engine& engine, util::TraceRecorder& recorder,
                         sim::Duration sample_period)
    : engine_(engine), recorder_(recorder), period_(sample_period) {
  if (sample_period <= sim::Duration::zero()) {
    throw std::invalid_argument("ControlDesk: sample period must be positive");
  }
}

void ControlDesk::watch(std::string signal, std::function<double()> probe) {
  probes_.emplace_back(std::move(signal), std::move(probe));
}

void ControlDesk::watch_runnable(const wdg::SoftwareWatchdog& watchdog,
                                 RunnableId runnable,
                                 const std::string& prefix) {
  const auto& hbm = watchdog.heartbeat_unit();
  const auto& tsi = watchdog.tsi_unit();
  watch(prefix + ".AC", [&hbm, runnable] {
    return static_cast<double>(hbm.ac(runnable));
  });
  watch(prefix + ".CCA", [&hbm, runnable] {
    return static_cast<double>(hbm.cca(runnable));
  });
  watch(prefix + ".ARC", [&hbm, runnable] {
    return static_cast<double>(hbm.arc(runnable));
  });
  watch(prefix + ".CCAR", [&hbm, runnable] {
    return static_cast<double>(hbm.ccar(runnable));
  });
  watch(prefix + ".AM Result", [&tsi, runnable] {
    return static_cast<double>(
        tsi.error_count(runnable, wdg::ErrorType::kAliveness) +
        tsi.error_count(runnable, wdg::ErrorType::kAccumulatedAliveness));
  });
  watch(prefix + ".ARM Result", [&tsi, runnable] {
    return static_cast<double>(
        tsi.error_count(runnable, wdg::ErrorType::kArrivalRate));
  });
  watch(prefix + ".PFC Result", [&tsi, runnable] {
    return static_cast<double>(
        tsi.error_count(runnable, wdg::ErrorType::kProgramFlow));
  });
}

void ControlDesk::watch_event_bus(telemetry::EventBus& bus,
                                  const std::string& prefix) {
  // The counters are shared between the bus sink and the probes so the
  // ControlDesk can be destroyed before the bus without dangling.
  struct Counts {
    std::uint64_t events = 0;
    std::uint64_t detections = 0;
    std::uint64_t treatments = 0;
  };
  auto counts = std::make_shared<Counts>();
  bus.add_sink([counts](const telemetry::Event& event) {
    ++counts->events;
    if (telemetry::is_detection(event.kind)) ++counts->detections;
    if (telemetry::is_treatment(event.kind)) ++counts->treatments;
  });
  watch(prefix + ".events",
        [counts] { return static_cast<double>(counts->events); });
  watch(prefix + ".detections",
        [counts] { return static_cast<double>(counts->detections); });
  watch(prefix + ".treatments",
        [counts] { return static_cast<double>(counts->treatments); });
}

void ControlDesk::watch_environment(
    const wdg::EnvironmentSupervisionUnit& environment,
    const std::string& prefix, const wdg::ProcessSupervisionUnit* process) {
  watch(prefix + ".temp_c", [&environment] {
    return environment.temperature_c();
  });
  watch(prefix + ".stage", [&environment] {
    return static_cast<double>(environment.stage());
  });
  watch(prefix + ".flash_fill", [&environment] {
    return static_cast<double>(environment.flash_fill_pct());
  });
  watch(prefix + ".flash_wear", [&environment] {
    return static_cast<double>(environment.flash_wear_pct());
  });
  if (process != nullptr) {
    for (std::size_t i = 0; i < process->section_count(); ++i) {
      watch(prefix + "." + process->record(i).section + ".transgressions",
            [process, i] {
              return static_cast<double>(process->record(i).count);
            });
    }
  }
}

void ControlDesk::watch_power_mode(const mode::PowerModeManager& manager,
                                   const std::string& prefix,
                                   const mode::ModeSupervisionUnit* unit) {
  watch(prefix + ".mode", [&manager] {
    return static_cast<double>(static_cast<std::uint8_t>(manager.current()));
  });
  watch(prefix + ".dwell_ms", [this, &manager] {
    return static_cast<double>(manager.dwell(engine_.now()).as_micros()) /
           1000.0;
  });
  // Causes are strings; the trace is numeric. A 24-bit FNV-1a hash maps
  // each distinct cause to a stable plotted level.
  watch(prefix + ".cause", [&manager] {
    std::uint64_t h = 1469598103934665603ull;
    for (const char c : manager.last_cause()) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
    return static_cast<double>((h ^ (h >> 24) ^ (h >> 48)) & 0xFFFFFFu);
  });
  watch(prefix + ".transitions", [&manager] {
    return static_cast<double>(manager.transitions());
  });
  watch(prefix + ".refusals", [&manager] {
    return static_cast<double>(manager.refusals());
  });
  if (unit != nullptr) {
    watch(prefix + ".overlay", [unit] {
      return static_cast<double>(unit->active_overlay_hash24());
    });
    watch(prefix + ".silence", [unit] {
      return unit->silence_contracted() ? 1.0 : 0.0;
    });
    watch(prefix + ".mode_errors", [unit] {
      return static_cast<double>(unit->errors_reported());
    });
  }
}

void ControlDesk::watch_health_master(const diag::HealthMonitorMaster& master,
                                      const std::string& prefix) {
  watch(prefix + ".silent",
        [&master] { return static_cast<double>(master.silent_count()); });
  watch(prefix + ".cycles",
        [&master] { return static_cast<double>(master.poll_cycles()); });
  for (std::size_t i = 0; i < master.fleet().size(); ++i) {
    const std::string ecu = master.fleet()[i].name;
    watch(prefix + "." + ecu + ".alive", [&master, i] {
      return master.fleet()[i].state == diag::FleetEntry::State::kAlive ? 1.0
                                                                        : 0.0;
    });
    watch(prefix + "." + ecu + ".dtc",
          [&master, i] { return master.fleet()[i].dtc_total; });
    watch(prefix + "." + ecu + ".health",
          [&master, i] { return master.fleet()[i].health; });
  }
}

void ControlDesk::start(sim::Duration horizon) {
  if (running_) throw std::logic_error("ControlDesk: already running");
  running_ = true;
  stop_at_ = engine_.now() + horizon;
  sample();
  timer_ = engine_.every(period_, [this] { sample(); },
                         sim::EventPriority::kMonitor);
}

void ControlDesk::sample() {
  if (engine_.now() > stop_at_) {
    running_ = false;
    timer_.cancel();
    return;
  }
  ++samples_;
  const std::int64_t t = engine_.now().as_micros();
  for (const auto& [signal, probe] : probes_) {
    recorder_.record(signal, t, probe());
  }
}

}  // namespace easis::validator
