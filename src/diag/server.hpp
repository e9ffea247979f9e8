// UDS-lite diagnostic server: one per ECU node.
//
// Listens on the node's request CAN id behind E2E protection, executes the
// supported services against the node's fault memory (DtcStore), Fault
// Management Framework and Software Watchdog, and answers on the response
// CAN id. Damaged requests (failed E2E check) are silently discarded —
// diagnostics ride the same protected transport as safety signals, and a
// corrupted request must not trigger an ECU reset.
//
// Session handling (S3 flavoured): TesterPresent opens a diagnostic
// session; any accepted request refreshes it; privileged services
// (ClearDiagnosticInformation, ECUReset) are refused with NRC
// conditionsNotCorrect outside a session. A session that sees no request
// for `s3_timeout` expires and emits a kDiagSessionExpired event.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "bus/can.hpp"
#include "bus/e2e.hpp"
#include "diag/protocol.hpp"
#include "fmf/dtc.hpp"
#include "fmf/fmf.hpp"
#include "sim/engine.hpp"
#include "wdg/watchdog.hpp"

namespace easis::wdg {
class EnvironmentSupervisionUnit;
class ProcessSupervisionUnit;
}  // namespace easis::wdg

namespace easis::diag {

struct DiagServerConfig {
  std::string name = "diag";
  /// CAN id the server listens on (physical request addressing).
  std::uint32_t request_can_id = 0x600;
  /// CAN id the server answers on.
  std::uint32_t response_can_id = 0x608;
  /// E2E channel identities for the two directions.
  std::uint16_t request_data_id = 0x60;
  std::uint16_t response_data_id = 0x61;
  /// S3 session timeout: a session with no request for this long expires.
  sim::Duration s3_timeout = sim::Duration::millis(500);
  /// Delay between accepting a commanded ECUReset and performing it, so
  /// the positive response wins bus arbitration before the node goes down.
  sim::Duration reset_delay = sim::Duration::millis(2);
};

/// The node-side capabilities the server executes services against. All
/// pointers are non-owning and optional: a service whose backend is absent
/// answers NRC conditionsNotCorrect instead of crashing.
struct DiagBackend {
  fmf::DtcStore* dtcs = nullptr;
  fmf::FaultManagementFramework* fmf = nullptr;
  wdg::SoftwareWatchdog* watchdog = nullptr;
  /// Performs the node's software reset (ECUReset service).
  std::function<void()> ecu_reset{};
  /// True while the node cannot serve diagnostics (reset blackout).
  std::function<bool()> offline{};
  /// Extra probe for kDidHeartbeatsSent (remote nodes).
  std::function<std::uint64_t()> heartbeats_sent{};
  /// Active dependability policy, as (24-bit hash, version) probes for
  /// kDidPolicyHash/kDidPolicyVersion. Kept as probes so the diag layer
  /// stays independent of the policy library.
  std::function<std::uint32_t()> policy_hash{};
  std::function<std::uint32_t()> policy_version{};
  /// Environmental supervision: temperature and derate-stage identifiers.
  const wdg::EnvironmentSupervisionUnit* environment = nullptr;
  /// Supervised-process client API: transgression-record identifiers.
  const wdg::ProcessSupervisionUnit* process = nullptr;
  /// NVM store for the flash fill/wear identifiers.
  const fmf::NvmStore* nvm = nullptr;
};

class DiagServer {
 public:
  DiagServer(sim::Engine& engine, bus::CanBus& can, DiagBackend backend,
             DiagServerConfig config = {});
  DiagServer(const DiagServer&) = delete;
  DiagServer& operator=(const DiagServer&) = delete;

  /// Registers (or replaces) a ReadDataByIdentifier probe. The standard
  /// watchdog/FMF identifiers are pre-registered from the backend; campaign
  /// harnesses add metric snapshots at kDidMetricBase + i.
  void add_data_identifier(std::uint16_t did, std::string name,
                           std::function<double()> probe);

  // --- fault hooks (diag-layer injection) -----------------------------------
  /// Process requests but never transmit the response (lost response).
  void set_response_drop(bool drop) { response_drop_ = drop; }
  /// Ignore requests entirely, as during a reset blackout. ORed with the
  /// backend's offline() probe.
  void set_blackout(bool blackout) { blackout_ = blackout; }

  // --- introspection --------------------------------------------------------
  [[nodiscard]] bool session_active() const { return session_active_; }
  [[nodiscard]] std::uint64_t requests_accepted() const { return accepted_; }
  [[nodiscard]] std::uint64_t requests_dropped_offline() const {
    return dropped_offline_;
  }
  [[nodiscard]] std::uint64_t responses_sent() const { return responses_; }
  [[nodiscard]] std::uint64_t sessions_expired() const { return expired_; }
  [[nodiscard]] const bus::E2EReceiver& receiver() const { return rx_; }
  [[nodiscard]] const DiagServerConfig& config() const { return config_; }

 private:
  struct DataIdentifier {
    std::string name;
    std::function<double()> probe;
  };

  sim::Engine& engine_;
  bus::CanBus& can_;
  DiagBackend backend_;
  DiagServerConfig config_;
  bus::CanBus::EndpointId endpoint_;
  bus::E2EReceiver rx_;
  bus::E2ESender tx_;
  std::map<std::uint16_t, DataIdentifier> dids_;

  bool session_active_ = false;
  sim::EventId session_expiry_event_ = 0;
  bool response_drop_ = false;
  bool blackout_ = false;
  std::uint64_t accepted_ = 0;
  std::uint64_t dropped_offline_ = 0;
  std::uint64_t responses_ = 0;
  std::uint64_t expired_ = 0;

  void register_standard_dids();
  [[nodiscard]] bool offline() const;
  void on_frame(const bus::Frame& frame, sim::SimTime now);
  [[nodiscard]] Response dispatch(const Request& request, sim::SimTime now);
  [[nodiscard]] Response read_dtc_information(const Request& request);
  [[nodiscard]] Response read_data_by_identifier(const Request& request);
  [[nodiscard]] Response clear_diagnostic_information(const Request& request);
  [[nodiscard]] Response ecu_reset(const Request& request);
  [[nodiscard]] Response tester_present(const Request& request);
  void refresh_session(sim::SimTime now);
  void open_session(sim::SimTime now);
  void expire_session();
  void send(const Response& response);
  [[nodiscard]] static Response negative(std::uint8_t sid, Nrc nrc);
};

}  // namespace easis::diag
