// What the class x detector campaign scenarios share. Each family keeps
// one fault-class table (a row per class: its name and the facts that
// class differs in) and one run function; the run functions share the
// table lookup, the t=2s inject / t=6s readout / t=8s end timeline, the
// workshop tester, the light-control load shedding and the flight note.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "bus/can.hpp"
#include "diag/protocol.hpp"
#include "diag/tester.hpp"
#include "fmf/fmf.hpp"
#include "harness/run_spec.hpp"
#include "sim/engine.hpp"
#include "validator/central_node.hpp"

namespace easis::bench {

constexpr std::int64_t kInjectAtUs = 2'000'000;
constexpr std::int64_t kReadoutAtUs = 6'000'000;
constexpr std::int64_t kRunUntilUs = 8'000'000;

/// The row of `table` named `fault_class`. Throws std::invalid_argument
/// ("unknown <family> fault class: <name>") when no row has that name.
template <class Row, std::size_t N>
const Row& find_class(const Row (&table)[N], const std::string& fault_class,
                      const char* family) {
  for (const Row& row : table) {
    if (fault_class == row.name) return row;
  }
  throw std::invalid_argument(std::string("unknown ") + family +
                              " fault class: " + fault_class);
}

/// The class names of `table`, in table order.
template <class Row, std::size_t N>
std::vector<std::string> class_names(const Row (&table)[N]) {
  std::vector<std::string> names;
  for (const Row& row : table) names.emplace_back(row.name);
  return names;
}

/// The record of DTC (type, app) in `readout`, or nullptr.
inline const diag::DtcRecord* find_dtc(const diag::DtcReadout& readout,
                                       wdg::ErrorType type,
                                       std::uint16_t app) {
  for (const auto& record : readout.records) {
    if (record.type == type && record.application == app) return &record;
  }
  return nullptr;
}

/// The node's UDS-lite server and a "workshop" tester on a diagnostic CAN.
struct Workshop {
  template <class Node>
  Workshop(sim::Engine& engine, Node& node)
      : can(engine),
        server(node.attach_diag(can)),
        tester(engine, can, diag::DiagTesterConfig{.name = "workshop"}) {}

  /// Reads the DTC list and calls `found(record)` when it holds DTC
  /// (type, app).
  template <class Found>
  void read_dtc(wdg::ErrorType type, ApplicationId application, Found found) {
    const auto app = static_cast<std::uint16_t>(application.value());
    tester.read_dtcs([type, app, found = std::move(found)](
                         const std::optional<diag::Response>& response) {
      if (!response || !response->positive) return;
      const auto readout = diag::decode_dtc_readout(response->data);
      if (!readout) return;
      if (const diag::DtcRecord* record = find_dtc(*readout, type, app)) {
        found(*record);
      }
    });
  }

  bus::CanBus can;
  diag::DiagServer& server;
  diag::DiagTester tester;
};

/// Environmental and CPU-load faults are accounted to the QM light-control
/// application. Its FMF policy degrades it (load shedding: monitoring
/// parked, application off the bus) instead of restarting it, which would
/// not cool a die, heal flash or free CPU for the safety applications.
inline void shed_light_control_on_fault(validator::CentralNode& node) {
  fmf::FaultManagementFramework* fmf = node.fault_management();
  const ApplicationId light_app = node.light_control()->application();
  fmf::ApplicationPolicy degrade;
  degrade.on_faulty = fmf::TreatmentAction::kDegrade;
  fmf->set_application_policy(light_app, degrade);
  fmf->set_degraded_mode(
      light_app,
      [&node, light_app] {
        node.watchdog().set_application_active(light_app, false);
        node.rte().set_application_enabled(light_app, false);
      },
      [&node, light_app] {
        node.rte().set_application_enabled(light_app, true);
      });
}

/// Publishes `note()` as the run's flight note every 100 ms (the last one
/// is what a quarantined run's flight dump shows); nothing without `ctx`.
template <class Note>
void publish_flight_note(sim::Engine& engine, const harness::RunContext* ctx,
                         Note note) {
  if (ctx == nullptr) return;
  engine.every(sim::Duration::millis(100),
               [ctx, note = std::move(note)] { ctx->set_flight_note(note()); });
}

}  // namespace easis::bench
