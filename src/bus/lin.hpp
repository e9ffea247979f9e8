// LIN bus model: master/slave polling on a schedule table.
//
// Completes the classic in-vehicle network trio (CAN, FlexRay, LIN) for
// body electronics like the light-control node. The master walks a frame
// schedule; for each slot it broadcasts the header, the publisher of that
// frame id answers with its payload (or stays silent — a no-response
// event), and the response is delivered to every other endpoint.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "bus/fault_link.hpp"
#include "bus/frame.hpp"
#include "sim/engine.hpp"

namespace easis::bus {

class LinBus {
 public:
  using EndpointId = std::size_t;
  /// Slave response provider: payload for the polled frame id, or nullopt
  /// for no response (slave dead / not ready).
  using Publisher = std::function<std::optional<std::vector<std::uint8_t>>()>;

  LinBus(sim::Engine& engine, sim::Duration slot = sim::Duration::millis(10));
  LinBus(const LinBus&) = delete;
  LinBus& operator=(const LinBus&) = delete;

  EndpointId attach(std::string name, FrameHandler rx);

  /// Assigns the publisher (responding slave) of a frame id.
  void set_publisher(std::uint32_t frame_id, EndpointId endpoint,
                     Publisher publisher);

  /// The master's polling order; one frame id per slot, repeating.
  void set_schedule(std::vector<std::uint32_t> frame_ids);

  void start();
  void stop();
  [[nodiscard]] bool running() const { return running_; }

  /// Shared fault model, consulted when a slave response is delivered.
  void set_fault_link(FaultLink* link) { fault_link_ = link; }
  [[nodiscard]] FaultLink* fault_link() const { return fault_link_; }

  [[nodiscard]] sim::Duration slot() const { return slot_; }
  [[nodiscard]] std::uint64_t polls() const { return polls_; }
  [[nodiscard]] std::uint64_t responses() const { return responses_; }
  [[nodiscard]] std::uint64_t no_responses() const { return no_responses_; }
  [[nodiscard]] std::uint64_t frames_lost() const { return lost_; }

 private:
  struct Endpoint {
    std::string name;
    FrameHandler rx;
  };
  struct Slave {
    EndpointId endpoint = 0;
    Publisher publisher;
  };

  sim::Engine& engine_;
  sim::Duration slot_;
  std::vector<Endpoint> endpoints_;
  std::vector<std::uint32_t> schedule_;
  std::vector<std::pair<std::uint32_t, Slave>> publishers_;
  FaultLink* fault_link_ = nullptr;
  bool running_ = false;
  sim::Timer poll_timer_;
  std::size_t next_slot_ = 0;
  std::uint64_t polls_ = 0;
  std::uint64_t responses_ = 0;
  std::uint64_t no_responses_ = 0;
  std::uint64_t lost_ = 0;

  void poll_slot();
  void deliver(const Frame& frame, const Slave* slave);
  [[nodiscard]] Slave* slave_for(std::uint32_t frame_id);
};

}  // namespace easis::bus
