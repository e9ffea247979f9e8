// Remote validator node (paper §4.1: fault-tolerant sensor/actuator
// nodes, driving dynamics, light control node...).
//
// A minimal ECU: its own kernel with one periodic task that broadcasts a
// node heartbeat frame (rolling sequence counter) on the vehicle CAN.
// halt()/resume() model a node crash and recovery for the distributed
// supervision experiments.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "bus/can.hpp"
#include "diag/server.hpp"
#include "os/kernel.hpp"
#include "sim/engine.hpp"

namespace easis::validator {

struct RemoteNodeConfig {
  std::string name = "remote";
  /// CAN identifier of this node's heartbeat frame (unique per node).
  std::uint32_t heartbeat_can_id = 0x700;
  sim::Duration heartbeat_period = sim::Duration::millis(50);
  /// Modelled cost of the heartbeat task's job.
  sim::Duration task_cost = sim::Duration::micros(50);
  /// Hosts a UDS-lite DiagServer on the node's CAN. The server goes
  /// offline while the node is halted; a commanded ECUReset reboots the
  /// node in place. Channel ids come from `diag`.
  bool with_diag = false;
  diag::DiagServerConfig diag;
};

class RemoteNode {
 public:
  RemoteNode(sim::Engine& engine, bus::CanBus& can, RemoteNodeConfig config);
  RemoteNode(const RemoteNode&) = delete;
  RemoteNode& operator=(const RemoteNode&) = delete;

  /// Boots the node and starts heartbeating.
  void start();
  /// Node crash: the kernel stops scheduling (heartbeats cease).
  void halt();
  /// Recovery after halt(): reboots and resumes heartbeating.
  void resume();
  [[nodiscard]] bool halted() const { return halted_; }

  /// Commanded reboot (diagnostic ECUReset): tear down and boot again.
  void reboot();

  [[nodiscard]] const std::string& name() const { return config_.name; }
  [[nodiscard]] const RemoteNodeConfig& config() const { return config_; }
  [[nodiscard]] std::uint32_t heartbeats_sent() const { return sequence_; }
  [[nodiscard]] os::Kernel& kernel() { return kernel_; }
  /// Non-null when config().with_diag is set.
  [[nodiscard]] diag::DiagServer* diag_server() { return diag_.get(); }

 private:
  sim::Engine& engine_;
  bus::CanBus& can_;
  RemoteNodeConfig config_;
  os::Kernel kernel_;
  bus::CanBus::EndpointId endpoint_ = 0;
  TaskId task_;
  AlarmId alarm_;
  CounterId counter_;
  std::uint64_t period_ticks_ = 1;
  std::uint32_t sequence_ = 0;
  bool halted_ = false;
  std::unique_ptr<diag::DiagServer> diag_;

  void send_heartbeat();
};

}  // namespace easis::validator
