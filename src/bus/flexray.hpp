// FlexRay bus model: static-segment TDMA (paper §4.1: the validator's
// FlexRay domain carrying the steer-by-wire / driving-dynamics traffic).
//
// Each communication cycle is divided into equal static slots; a slot is
// owned by exactly one endpoint, which may place at most one frame per
// cycle into it (last-is-best until the slot starts). Delivery happens at
// the slot end — deterministic latency, no arbitration.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "bus/fault_link.hpp"
#include "bus/frame.hpp"
#include "sim/engine.hpp"

namespace easis::bus {

struct FlexRayConfig {
  sim::Duration cycle = sim::Duration::millis(5);
  std::uint32_t static_slots = 10;
};

class FlexRayBus {
 public:
  using EndpointId = std::size_t;

  FlexRayBus(sim::Engine& engine, FlexRayConfig config = {});
  FlexRayBus(const FlexRayBus&) = delete;
  FlexRayBus& operator=(const FlexRayBus&) = delete;

  EndpointId attach(std::string name, FrameHandler rx);

  /// Grants `endpoint` exclusive send rights for `slot` (0-based).
  void assign_slot(std::uint32_t slot, EndpointId endpoint);

  /// Stages a frame for the endpoint's slot in the next cycle occurrence
  /// (last-is-best). Fails (returns false) if the slot is not owned.
  bool send(EndpointId from, std::uint32_t slot, Frame frame);

  /// Begins cycling from the current time.
  void start();
  void stop();
  [[nodiscard]] bool running() const { return running_; }

  /// Shared fault model, consulted at slot-end delivery. Non-owning.
  void set_fault_link(FaultLink* link) { fault_link_ = link; }
  [[nodiscard]] FaultLink* fault_link() const { return fault_link_; }

  [[nodiscard]] const FlexRayConfig& config() const { return config_; }
  [[nodiscard]] sim::Duration slot_length() const;
  [[nodiscard]] std::uint64_t cycles_completed() const { return cycles_; }
  [[nodiscard]] std::uint64_t frames_delivered() const { return delivered_; }
  [[nodiscard]] std::uint64_t frames_lost() const { return lost_; }
  [[nodiscard]] std::optional<EndpointId> slot_owner(
      std::uint32_t slot) const;

 private:
  struct Endpoint {
    std::string name;
    FrameHandler rx;
  };
  struct Slot {
    std::optional<EndpointId> owner;
    std::optional<Frame> staged;
  };

  sim::Engine& engine_;
  FlexRayConfig config_;
  std::vector<Endpoint> endpoints_;
  std::vector<Slot> slots_;
  FaultLink* fault_link_ = nullptr;
  bool running_ = false;
  sim::TimerGroup timers_{engine_};  // the cycle series and its slot ends
  std::uint64_t cycles_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t lost_ = 0;

  void schedule_slots(sim::SimTime cycle_start);
  void end_slot(std::uint32_t s);
  void deliver(const Frame& frame, EndpointId from);
};

}  // namespace easis::bus
