#include "bus/flexray.hpp"

#include <cassert>
#include <stdexcept>

namespace easis::bus {

FlexRayBus::FlexRayBus(sim::Engine& engine, FlexRayConfig config)
    : engine_(engine), config_(config) {
  if (config_.static_slots == 0) {
    throw std::invalid_argument("FlexRayBus: need at least one slot");
  }
  if (config_.cycle <= sim::Duration::zero()) {
    throw std::invalid_argument("FlexRayBus: cycle must be positive");
  }
  slots_.resize(config_.static_slots);
}

FlexRayBus::EndpointId FlexRayBus::attach(std::string name, FrameHandler rx) {
  endpoints_.push_back(Endpoint{std::move(name), std::move(rx)});
  return endpoints_.size() - 1;
}

void FlexRayBus::assign_slot(std::uint32_t slot, EndpointId endpoint) {
  if (slot >= slots_.size()) {
    throw std::invalid_argument("FlexRayBus: slot out of range");
  }
  if (endpoint >= endpoints_.size()) {
    throw std::invalid_argument("FlexRayBus: bad endpoint");
  }
  if (slots_[slot].owner.has_value()) {
    throw std::logic_error("FlexRayBus: slot already assigned");
  }
  slots_[slot].owner = endpoint;
}

bool FlexRayBus::send(EndpointId from, std::uint32_t slot, Frame frame) {
  if (slot >= slots_.size() || slots_[slot].owner != from) return false;
  slots_[slot].staged = std::move(frame);
  return true;
}

sim::Duration FlexRayBus::slot_length() const {
  return config_.cycle / static_cast<std::int64_t>(config_.static_slots);
}

void FlexRayBus::start() {
  if (running_) throw std::logic_error("FlexRayBus: already running");
  running_ = true;
  schedule_slots(engine_.now());
  timers_.add(engine_.every(
      config_.cycle,
      [this] {
        ++cycles_;
        schedule_slots(engine_.now());
      },
      sim::EventPriority::kKernel));
}

void FlexRayBus::stop() {
  running_ = false;
  timers_.cancel_all();
}

std::optional<FlexRayBus::EndpointId> FlexRayBus::slot_owner(
    std::uint32_t slot) const {
  assert(slot < slots_.size());
  return slots_[slot].owner;
}

void FlexRayBus::schedule_slots(sim::SimTime cycle_start) {
  const sim::Duration slot_len = slot_length();
  for (std::uint32_t s = 0; s < slots_.size(); ++s) {
    // Delivery at the slot end.
    timers_.add(engine_.schedule_at(cycle_start + slot_len * (s + 1),
                                    [this, s] { end_slot(s); },
                                    sim::EventPriority::kKernel));
  }
}

void FlexRayBus::end_slot(std::uint32_t s) {
  Slot& slot = slots_[s];
  if (!slot.owner || !slot.staged) return;
  Frame frame = std::move(*slot.staged);
  slot.staged.reset();
  FaultLink::Verdict verdict;
  if (fault_link_) verdict = fault_link_->process(frame);
  if (verdict.drop) {
    ++lost_;
    return;
  }
  if (verdict.delay > sim::Duration::zero()) {
    engine_.schedule_in(verdict.delay, [this, frame, from = *slot.owner] {
      deliver(frame, from);
    });
  } else {
    deliver(frame, *slot.owner);
  }
  if (verdict.duplicate) deliver(frame, *slot.owner);
}

void FlexRayBus::deliver(const Frame& frame, EndpointId from) {
  ++delivered_;
  for (std::size_t i = 0; i < endpoints_.size(); ++i) {
    if (i == from || !endpoints_[i].rx) continue;
    endpoints_[i].rx(frame, engine_.now());
  }
}

}  // namespace easis::bus
