#include "validator/remote_node.hpp"

#include <stdexcept>

namespace easis::validator {

RemoteNode::RemoteNode(sim::Engine& engine, bus::CanBus& can,
                       RemoteNodeConfig config)
    : engine_(engine), can_(can), config_(std::move(config)), kernel_(engine) {
  endpoint_ = can_.attach(config_.name, nullptr);

  os::CounterConfig counter_config;
  counter_config.name = config_.name + "_timer";
  counter_config.tick = sim::Duration::millis(1);
  counter_ = kernel_.create_counter(counter_config);

  os::TaskConfig task_config;
  task_config.name = config_.name + "_heartbeat";
  task_config.priority = 1;
  task_ = kernel_.create_task(task_config);
  kernel_.set_job_factory(task_, [this](os::Job& job) {
    os::Segment& segment = job.emplace_back();
    segment.cost = config_.task_cost;
    segment.on_complete = [this] { send_heartbeat(); };
  });
  alarm_ = kernel_.create_alarm(counter_, os::AlarmActionActivateTask{task_},
                                config_.name + "_alarm");

  const auto period = config_.heartbeat_period.as_micros();
  if (period <= 0 || period % 1000 != 0) {
    throw std::invalid_argument(
        "RemoteNode: heartbeat period must be a positive multiple of 1ms");
  }
  period_ticks_ = static_cast<std::uint64_t>(period / 1000);

  if (config_.with_diag) {
    diag::DiagServerConfig diag_config = config_.diag;
    if (diag_config.name == "diag") diag_config.name = config_.name + "_diag";
    diag::DiagBackend backend;
    backend.ecu_reset = [this] { reboot(); };
    backend.offline = [this] { return halted_; };
    backend.heartbeats_sent = [this] {
      return static_cast<std::uint64_t>(sequence_);
    };
    diag_ = std::make_unique<diag::DiagServer>(engine_, can_,
                                               std::move(backend),
                                               std::move(diag_config));
    // Remote nodes carry no watchdog; the health probe is the node itself.
    diag_->add_data_identifier(diag::kDidEcuHealth, "ecu_health",
                               [this] { return halted_ ? 1.0 : 0.0; });
  }
}

void RemoteNode::start() {
  kernel_.start();
  kernel_.set_rel_alarm(alarm_, period_ticks_, period_ticks_);
}

void RemoteNode::halt() {
  halted_ = true;
  kernel_.software_reset();  // everything stops; nothing restarts it
}

void RemoteNode::resume() {
  if (!halted_) return;
  halted_ = false;
  start();
}

void RemoteNode::reboot() {
  ++reboots_;
  kernel_.software_reset();
  halted_ = false;
  start();
}

void RemoteNode::send_heartbeat() {
  if (halted_) return;
  ++sequence_;
  bus::Frame frame;
  frame.id = config_.heartbeat_can_id;
  frame.payload = {static_cast<std::uint8_t>(sequence_ & 0xFF),
                   static_cast<std::uint8_t>((sequence_ >> 8) & 0xFF)};
  can_.transmit(endpoint_, std::move(frame));
}

}  // namespace easis::validator
