#include "diag/health_master.hpp"

#include <iomanip>
#include <utility>

#include "telemetry/event_bus.hpp"

namespace easis::diag {

namespace {
void emit_transition(sim::SimTime now, bool silent, const std::string& name) {
  if (!telemetry::enabled()) return;
  telemetry::Event event;
  event.time = now;
  event.component = telemetry::Component::kDiag;
  event.kind = silent ? telemetry::EventKind::kDiagNodeSilent
                      : telemetry::EventKind::kDiagNodeRecovered;
  event.detail = name;
  telemetry::emit(std::move(event));
}

void emit_policy_mismatch(sim::SimTime now, const std::string& name,
                          std::uint32_t seen, std::uint32_t expected) {
  if (!telemetry::enabled()) return;
  telemetry::Event event;
  event.time = now;
  event.component = telemetry::Component::kDiag;
  event.kind = telemetry::EventKind::kPolicyMismatch;
  event.detail = name + ": policy hash " + std::to_string(seen) +
                 " != expected " + std::to_string(expected);
  telemetry::emit(std::move(event));
}
}  // namespace

std::string_view to_string(FleetEntry::State state) {
  switch (state) {
    case FleetEntry::State::kUnknown: return "unknown";
    case FleetEntry::State::kAlive: return "alive";
    case FleetEntry::State::kSilent: return "silent";
  }
  return "?";
}

HealthMonitorMaster::HealthMonitorMaster(sim::Engine& engine, bus::CanBus& can,
                                         HealthMonitorConfig config)
    : engine_(engine), can_(can), config_(config) {}

void HealthMonitorMaster::register_ecu(const std::string& name,
                                       DiagTesterConfig client) {
  client.name = "health_master:" + name;
  client.response_timeout = config_.response_timeout;
  FleetEntry entry;
  entry.name = name;
  fleet_.push_back(std::move(entry));
  Ecu ecu;
  ecu.tester = std::make_unique<DiagTester>(engine_, can_, client);
  ecus_.push_back(std::move(ecu));
}

void HealthMonitorMaster::start() {
  if (started_) return;
  started_ = true;
  engine_.every(config_.poll_period, [this] { poll_cycle(); },
                sim::EventPriority::kMonitor);
}

void HealthMonitorMaster::poll_cycle() {
  ++cycles_;
  for (std::size_t i = 0; i < ecus_.size(); ++i) poll_ecu(i);
}

void HealthMonitorMaster::poll_ecu(std::size_t index) {
  Ecu& ecu = ecus_[index];
  FleetEntry& entry = fleet_[index];
  ++entry.polls;
  ecu.cycle_resolved = 0;
  ecu.cycle_responses = 0;
  ecu.cycle_expected = config_.expected_policy_hash != 0 ? 3 : 2;
  ecu.tester->read_dtc_count(
      [this, index](const std::optional<Response>& response) {
        on_transaction(index, response);
        if (response && response->positive) {
          const auto readout = decode_dtc_readout(response->data);
          if (readout) {
            fleet_[index].dtc_total = readout->total;
            fleet_[index].dtc_active = readout->active;
          }
        }
      });
  ecu.tester->read_data(
      kDidEcuHealth, [this, index](const std::optional<Response>& response) {
        on_transaction(index, response);
        if (response && response->positive) {
          const auto value = get_f32(response->data, 2);
          if (value) fleet_[index].health = *value;
        }
      });
  if (config_.expected_policy_hash != 0) {
    ecu.tester->read_data(
        kDidPolicyHash, [this, index](const std::optional<Response>& response) {
          on_transaction(index, response);
          if (response && response->positive) {
            const auto value = get_f32(response->data, 2);
            if (value) on_policy_readout(index, static_cast<std::uint32_t>(*value));
          }
        });
  }
}

void HealthMonitorMaster::on_policy_readout(std::size_t index,
                                            std::uint32_t hash) {
  FleetEntry& entry = fleet_[index];
  entry.policy_hash = hash;
  const bool ok = hash == config_.expected_policy_hash;
  if (!ok) {
    ++entry.policy_mismatches;
    if (entry.policy_ok) {
      // Transition into mismatch: the node runs a different policy than
      // the fleet expects.
      emit_policy_mismatch(engine_.now(), entry.name, hash,
                           config_.expected_policy_hash);
    }
  }
  entry.policy_ok = ok;
}

void HealthMonitorMaster::on_transaction(
    std::size_t index, const std::optional<Response>& response) {
  Ecu& ecu = ecus_[index];
  ++ecu.cycle_resolved;
  if (response.has_value()) ++ecu.cycle_responses;
  if (ecu.cycle_resolved >= ecu.cycle_expected) {
    finish_cycle(index, engine_.now());
  }
}

void HealthMonitorMaster::finish_cycle(std::size_t index, sim::SimTime now) {
  Ecu& ecu = ecus_[index];
  FleetEntry& entry = fleet_[index];
  if (ecu.cycle_responses == 0) {
    // Fully dead poll: every transaction of the cycle timed out.
    ++entry.consecutive_timeout_cycles;
    if (entry.state != FleetEntry::State::kSilent &&
        entry.consecutive_timeout_cycles >= config_.silent_after) {
      entry.state = FleetEntry::State::kSilent;
      ++entry.silent_transitions;
      emit_transition(now, true, entry.name);
      if (state_callback_) state_callback_(entry.name, true, now);
    }
    return;
  }
  entry.consecutive_timeout_cycles = 0;
  entry.last_response = now;
  const bool was_silent = entry.state == FleetEntry::State::kSilent;
  entry.state = FleetEntry::State::kAlive;
  if (was_silent) {
    ++entry.recoveries;
    emit_transition(now, false, entry.name);
    if (state_callback_) state_callback_(entry.name, false, now);
  }
}

const FleetEntry* HealthMonitorMaster::entry(const std::string& name) const {
  for (const auto& e : fleet_) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

std::size_t HealthMonitorMaster::policy_mismatch_count() const {
  std::size_t count = 0;
  for (const auto& e : fleet_) {
    if (!e.policy_ok) ++count;
  }
  return count;
}

std::size_t HealthMonitorMaster::silent_count() const {
  std::size_t count = 0;
  for (const auto& e : fleet_) {
    if (e.state == FleetEntry::State::kSilent) ++count;
  }
  return count;
}

void HealthMonitorMaster::write_table(std::ostream& out) const {
  out << "fleet health (" << cycles_ << " poll cycles)\n";
  out << std::left << std::setw(16) << "  ecu" << std::setw(9) << "state"
      << std::setw(7) << "polls" << std::setw(6) << "dtc" << std::setw(8)
      << "active" << std::setw(8) << "health" << std::setw(8) << "silent"
      << "last_response\n";
  for (const auto& e : fleet_) {
    out << "  " << std::left << std::setw(14) << e.name << std::setw(9)
        << to_string(e.state) << std::setw(7) << e.polls << std::setw(6)
        << e.dtc_total << std::setw(8) << e.dtc_active << std::setw(8)
        << e.health << std::setw(8) << e.silent_transitions << e.last_response
        << "\n";
  }
}

}  // namespace easis::diag
