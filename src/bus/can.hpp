// CAN bus model (paper §4.1: the validator's CAN vehicle domain).
//
// Models the properties that matter at system level: priority arbitration
// by lowest identifier among competing pending frames, serialised medium
// (one frame at a time), transmission time from frame length and bitrate,
// and broadcast delivery to all other endpoints.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bus/fault_link.hpp"
#include "bus/frame.hpp"
#include "sim/engine.hpp"

namespace easis::bus {

class CanBus {
 public:
  using EndpointId = std::size_t;

  CanBus(sim::Engine& engine, std::uint32_t bitrate_bps = 500'000);
  CanBus(const CanBus&) = delete;
  CanBus& operator=(const CanBus&) = delete;

  /// Attaches an endpoint; `rx` receives every frame sent by others.
  EndpointId attach(std::string name, FrameHandler rx);

  /// Queues a frame for transmission; arbitration picks the lowest id
  /// among pending frames each time the bus becomes idle.
  void transmit(EndpointId from, Frame frame);

  // --- bus fault modes (injection support) ----------------------------------
  /// Bus-off: frames are transmitted into the void (a severed/failed bus).
  void set_bus_off(bool off) { bus_off_ = off; }
  [[nodiscard]] bool bus_off() const { return bus_off_; }
  /// Per-frame drop hook: return true to lose the frame (EMI, error
  /// frames). Evaluated at delivery time.
  void set_drop_hook(std::function<bool(const Frame&)> hook) {
    drop_hook_ = std::move(hook);
  }
  /// Shared fault model (corruption/loss/jitter/duplication/partition),
  /// consulted at delivery time. Non-owning; nullptr disables.
  void set_fault_link(FaultLink* link) { fault_link_ = link; }
  [[nodiscard]] FaultLink* fault_link() const { return fault_link_; }
  [[nodiscard]] std::uint64_t frames_lost() const { return lost_; }

  [[nodiscard]] std::size_t endpoint_count() const { return endpoints_.size(); }
  [[nodiscard]] const std::string& endpoint_name(EndpointId id) const;
  [[nodiscard]] bool busy() const { return busy_; }
  [[nodiscard]] std::size_t pending() const { return pending_.size(); }
  [[nodiscard]] std::uint64_t frames_delivered() const { return delivered_; }

  /// Transmission time of a frame at the configured bitrate (standard
  /// frame: 47 overhead bits + payload, plus worst-case bit stuffing).
  [[nodiscard]] sim::Duration frame_time(const Frame& frame) const;

 private:
  struct Endpoint {
    std::string name;
    FrameHandler rx;
  };
  struct Pending {
    EndpointId from;
    Frame frame;
  };

  sim::Engine& engine_;
  std::uint32_t bitrate_bps_;
  std::vector<Endpoint> endpoints_;
  /// Keyed by (frame id, transmit sequence): the first entry wins
  /// arbitration, lowest identifier first and FIFO among equal ids.
  std::map<std::pair<std::uint32_t, std::uint64_t>, Pending> pending_;
  bool busy_ = false;
  bool bus_off_ = false;
  std::function<bool(const Frame&)> drop_hook_;
  FaultLink* fault_link_ = nullptr;
  std::uint64_t seq_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t lost_ = 0;

  void try_start();
  void deliver(const Frame& frame, EndpointId from);
};

}  // namespace easis::bus
