// Vehicle network of the EASIS architecture validator (paper §4.1):
// a gateway node connecting the TCP/IP (telematics), CAN and FlexRay
// domains, carrying the externally commanded maximum speed to the central
// node's SafeSpeed application and broadcasting vehicle state back out.
//
// With NetworkConfig::e2e_protection the two safety paths (max-speed
// command, speed broadcast) are E2E-protected: senders stamp a CRC +
// alive-counter header, receivers run the E2E check and silently discard
// rejected frames (treated as no new data — the signal then ages into its
// reception deadline instead of carrying garbage). Check verdicts are
// published to a listener so a communication monitoring unit can feed
// them into the watchdog/FMF chain.
//
// Each bus carries a FaultLink (inert by default) for network fault
// injection, and a babbling-idiot node can be attached to the vehicle CAN.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>

#include "bus/can.hpp"
#include "bus/e2e.hpp"
#include "bus/fault_link.hpp"
#include "bus/flexray.hpp"
#include "bus/lin.hpp"
#include "bus/gateway.hpp"
#include "rte/signal_bus.hpp"
#include "sim/engine.hpp"

namespace easis::validator {

struct NetworkConfig {
  std::uint32_t can_bitrate_bps = 500'000;
  bus::FlexRayConfig flexray;
  sim::Duration gateway_latency = sim::Duration::micros(200);
  /// CAN id of the max-speed command frame on the vehicle CAN.
  std::uint32_t can_max_speed_id = 0x120;
  /// Telematics-side message id for the max-speed command.
  std::uint32_t telematics_max_speed_id = 0x10;
  /// FlexRay slot carrying the vehicle speed broadcast.
  std::uint32_t speed_slot = 2;
  /// How often the central node broadcasts the vehicle speed.
  sim::Duration speed_broadcast_period = sim::Duration::millis(10);
  /// LIN body bus: polling slot of the light/ambient sensor frame.
  sim::Duration lin_slot = sim::Duration::millis(50);
  std::uint32_t lin_ambient_frame_id = 0x21;
  /// E2E-protect the max-speed command and the speed broadcast.
  bool e2e_protection = false;
  /// E2E channel identities (never transmitted; part of the CRC).
  std::uint16_t max_speed_data_id = 0x5301;
  std::uint16_t speed_broadcast_data_id = 0x5302;
  /// Seed for the per-bus fault links (offset per bus internally).
  std::uint64_t fault_seed = 0x5AFEu;
};

/// Assembles the buses + gateway and bridges them onto a SignalBus:
///  - command_max_speed() sends a telematics frame that arrives (via the
///    gateway and the CAN domain) as signal "safespeed.max_speed_kmh";
///  - the central node's "vehicle.speed_kmh" signal is broadcast on the
///    FlexRay speed slot, observable via last_broadcast_speed();
///  - a LIN body bus polls the ambient-light sensor slave, feeding the
///    "env.ambient_light" signal of the light-control application.
class VehicleNetwork {
 public:
  /// Observes every E2E verdict on a protected reception path.
  using CheckListener = std::function<void(bus::E2EStatus, sim::SimTime)>;

  VehicleNetwork(sim::Engine& engine, rte::SignalBus& central_signals,
                 NetworkConfig config = {});
  VehicleNetwork(const VehicleNetwork&) = delete;
  VehicleNetwork& operator=(const VehicleNetwork&) = delete;

  /// Starts the FlexRay cycle and the periodic speed broadcast.
  void start();

  /// Telematics node: commands a new maximum speed (km/h).
  void command_max_speed(double kmh);

  /// Body domain: sets the ambient light level [0,1] the LIN sensor slave
  /// reports on its next poll.
  void set_ambient_light(double level) { ambient_level_ = level; }

  /// E2E verdicts of the central node's max-speed reception.
  void set_max_speed_check_listener(CheckListener listener) {
    max_speed_check_listener_ = std::move(listener);
  }
  /// E2E verdicts of the dynamics node's speed-broadcast reception.
  void set_speed_check_listener(CheckListener listener) {
    speed_check_listener_ = std::move(listener);
  }

  /// Lazily attaches a rogue node to the vehicle CAN; its flooder starves
  /// all lower-priority traffic while started.
  bus::BabblingIdiot& babbler();

  [[nodiscard]] bus::CanBus& can() { return *can_; }
  [[nodiscard]] bus::FlexRayBus& flexray() { return *flexray_; }
  [[nodiscard]] bus::LinBus& lin() { return *lin_; }
  [[nodiscard]] bus::Gateway& gateway() { return *gateway_; }
  [[nodiscard]] bus::FaultLink& can_fault_link() { return can_link_; }
  [[nodiscard]] bus::FaultLink& flexray_fault_link() { return flexray_link_; }
  [[nodiscard]] bus::FaultLink& lin_fault_link() { return lin_link_; }
  [[nodiscard]] const bus::E2EReceiver* max_speed_receiver() const {
    return max_speed_rx_ ? &*max_speed_rx_ : nullptr;
  }
  [[nodiscard]] const bus::E2EReceiver* speed_receiver() const {
    return speed_rx_ ? &*speed_rx_ : nullptr;
  }
  [[nodiscard]] double last_broadcast_speed() const { return last_speed_; }
  [[nodiscard]] std::uint64_t commands_received() const {
    return commands_received_;
  }
  /// Frames whose application payload failed to decode (truncated).
  [[nodiscard]] std::uint64_t decode_failures() const {
    return decode_failures_;
  }
  /// Protected frames discarded after a failed E2E check.
  [[nodiscard]] std::uint64_t e2e_rejections() const {
    return e2e_rejections_;
  }

 private:
  sim::Engine& engine_;
  rte::SignalBus& signals_;
  NetworkConfig config_;
  std::unique_ptr<bus::CanBus> can_;
  std::unique_ptr<bus::FlexRayBus> flexray_;
  std::unique_ptr<bus::LinBus> lin_;
  std::unique_ptr<bus::Gateway> gateway_;
  bus::FaultLink can_link_;
  bus::FaultLink flexray_link_;
  bus::FaultLink lin_link_;
  std::unique_ptr<bus::BabblingIdiot> babbler_;

  std::optional<bus::E2ESender> max_speed_tx_;
  std::optional<bus::E2EReceiver> max_speed_rx_;
  std::optional<bus::E2ESender> speed_tx_;
  std::optional<bus::E2EReceiver> speed_rx_;
  CheckListener max_speed_check_listener_;
  CheckListener speed_check_listener_;

  bus::CanBus::EndpointId central_can_endpoint_ = 0;
  bus::CanBus::EndpointId gateway_can_endpoint_ = 0;
  bus::FlexRayBus::EndpointId central_fr_endpoint_ = 0;
  bus::FlexRayBus::EndpointId dynamics_fr_endpoint_ = 0;
  bus::FrameHandler telematics_ingress_;
  double last_speed_ = 0.0;
  double ambient_level_ = 1.0;
  std::uint64_t commands_received_ = 0;
  std::uint64_t decode_failures_ = 0;
  std::uint64_t e2e_rejections_ = 0;
};

}  // namespace easis::validator
