#include "validator/node_supervisor.hpp"

#include <cassert>
#include <stdexcept>

namespace easis::validator {

NodeSupervisor::NodeSupervisor(sim::Engine& engine, bus::CanBus& can,
                               NodeSupervisorConfig config)
    : engine_(engine), config_(config) {
  can.attach("node_supervisor", [this](const bus::Frame& frame,
                                       sim::SimTime now) {
    on_frame(frame, now);
  });
}

NodeId NodeSupervisor::register_node(std::string name,
                                     std::uint32_t heartbeat_can_id,
                                     sim::Duration expected_period) {
  if (by_can_id_.contains(heartbeat_can_id)) {
    throw std::logic_error("NodeSupervisor: CAN id already registered");
  }
  const auto id =
      NodeId(static_cast<NodeId::underlying_type>(nodes_.size()));
  Node n;
  n.name = std::move(name);
  n.can_id = heartbeat_can_id;
  nodes_.push_back(std::move(n));
  by_can_id_.emplace(heartbeat_can_id, id);

  // Virtual runnable in the heartbeat unit: one aliveness window covers the
  // node's expected period (rounded up to supervision cycles) plus slack.
  const std::int64_t cycles = std::max<std::int64_t>(
      1, (expected_period.as_micros() + config_.check_period.as_micros() - 1) /
             config_.check_period.as_micros());
  wdg::RunnableMonitor monitor;
  monitor.runnable = RunnableId(id.value());
  monitor.task = TaskId(id.value());
  monitor.application = ApplicationId(0);
  monitor.name = nodes_.back().name;
  monitor.monitor_aliveness = true;
  monitor.aliveness_cycles = static_cast<std::uint32_t>(cycles + 1);
  monitor.min_heartbeats = 1;
  monitor.monitor_arrival_rate = false;
  monitor.program_flow = false;
  hbm_.add_runnable(monitor);
  return id;
}

void NodeSupervisor::start() {
  if (running_) throw std::logic_error("NodeSupervisor: already running");
  running_ = true;
  engine_.every(config_.check_period, [this] { cycle(); },
                sim::EventPriority::kMonitor);
}

void NodeSupervisor::on_frame(const bus::Frame& frame, sim::SimTime now) {
  auto it = by_can_id_.find(frame.id);
  if (it == by_can_id_.end()) return;  // not a heartbeat frame
  Node& n = node(it->second);
  ++n.heartbeats;
  hbm_.indicate(RunnableId(it->second.value()));
  n.consecutive_misses = 0;
  if (n.state == NodeState::kMissing) {
    n.state = NodeState::kAlive;
    ++n.recoveries;
    if (on_state_) on_state_(it->second, NodeState::kAlive, now);
  }
}

void NodeSupervisor::cycle() {
  hbm_.tick(engine_.now(),
            [this](RunnableId runnable, wdg::ErrorType type,
                   sim::SimTime now) {
              if (type != wdg::ErrorType::kAliveness) return;
              const NodeId id(runnable.value());
              Node& n = node(id);
              ++n.consecutive_misses;
              if (n.state == NodeState::kAlive &&
                  n.consecutive_misses >= config_.missing_threshold) {
                n.state = NodeState::kMissing;
                ++n.missing_events;
                if (on_state_) on_state_(id, NodeState::kMissing, now);
              }
            });
}

NodeSupervisor::Node& NodeSupervisor::node(NodeId id) {
  assert(id.valid() && id.value() < nodes_.size());
  return nodes_[id.value()];
}

const NodeSupervisor::Node& NodeSupervisor::node(NodeId id) const {
  assert(id.valid() && id.value() < nodes_.size());
  return nodes_[id.value()];
}

NodeSupervisor::NodeState NodeSupervisor::node_state(NodeId id) const {
  return node(id).state;
}

const std::string& NodeSupervisor::node_name(NodeId id) const {
  return node(id).name;
}

std::uint32_t NodeSupervisor::missing_events(NodeId id) const {
  return node(id).missing_events;
}

std::uint32_t NodeSupervisor::recovery_events(NodeId id) const {
  return node(id).recoveries;
}

std::uint64_t NodeSupervisor::heartbeats_seen(NodeId id) const {
  return node(id).heartbeats;
}

}  // namespace easis::validator
