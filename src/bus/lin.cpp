#include "bus/lin.hpp"

#include <stdexcept>

namespace easis::bus {

LinBus::LinBus(sim::Engine& engine, sim::Duration slot)
    : engine_(engine), slot_(slot) {
  if (slot <= sim::Duration::zero()) {
    throw std::invalid_argument("LinBus: slot must be positive");
  }
}

LinBus::EndpointId LinBus::attach(std::string name, FrameHandler rx) {
  endpoints_.push_back(Endpoint{std::move(name), std::move(rx)});
  return endpoints_.size() - 1;
}

void LinBus::set_publisher(std::uint32_t frame_id, EndpointId endpoint,
                           Publisher publisher) {
  if (endpoint >= endpoints_.size()) {
    throw std::invalid_argument("LinBus: bad endpoint");
  }
  if (slave_for(frame_id) != nullptr) {
    throw std::logic_error("LinBus: frame id already published");
  }
  publishers_.emplace_back(frame_id, Slave{endpoint, std::move(publisher)});
}

void LinBus::set_schedule(std::vector<std::uint32_t> frame_ids) {
  if (running_) throw std::logic_error("LinBus: cannot modify while running");
  schedule_ = std::move(frame_ids);
}

LinBus::Slave* LinBus::slave_for(std::uint32_t frame_id) {
  for (auto& [id, slave] : publishers_) {
    if (id == frame_id) return &slave;
  }
  return nullptr;
}

void LinBus::start() {
  if (running_) throw std::logic_error("LinBus: already running");
  if (schedule_.empty()) throw std::logic_error("LinBus: empty schedule");
  running_ = true;
  next_slot_ = 0;
  poll_timer_ = engine_.every(slot_, [this] { poll_slot(); },
                              sim::EventPriority::kKernel);
}

void LinBus::stop() {
  running_ = false;
  poll_timer_.cancel();
}

void LinBus::poll_slot() {
  const std::uint32_t frame_id = schedule_[next_slot_];
  next_slot_ = (next_slot_ + 1) % schedule_.size();
  ++polls_;
  Slave* slave = slave_for(frame_id);
  std::optional<std::vector<std::uint8_t>> payload;
  if (slave != nullptr && slave->publisher) payload = slave->publisher();
  if (!payload.has_value()) {
    ++no_responses_;
    return;
  }
  ++responses_;
  Frame frame;
  frame.id = frame_id;
  frame.payload = std::move(*payload);
  FaultLink::Verdict verdict;
  if (fault_link_) verdict = fault_link_->process(frame);
  if (verdict.drop) {
    ++lost_;
    return;
  }
  if (verdict.delay > sim::Duration::zero()) {
    engine_.schedule_in(verdict.delay,
                        [this, frame, slave] { deliver(frame, slave); });
  } else {
    deliver(frame, slave);
  }
  if (verdict.duplicate) deliver(frame, slave);
}

void LinBus::deliver(const Frame& frame, const Slave* slave) {
  for (std::size_t i = 0; i < endpoints_.size(); ++i) {
    if (slave != nullptr && i == slave->endpoint) continue;
    if (endpoints_[i].rx) endpoints_[i].rx(frame, engine_.now());
  }
}

}  // namespace easis::bus
