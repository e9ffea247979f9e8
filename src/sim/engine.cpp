#include "sim/engine.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "profile/profiler.hpp"

namespace easis::sim {

namespace {

EventId make_id(std::uint32_t slot, std::uint32_t gen) {
  return EventId{gen} << 32 | slot;
}

}  // namespace

std::uint32_t Engine::add(SimTime at, Action&& action, Duration period,
                          EventPriority priority) {
  auto index = static_cast<std::uint32_t>(slots_.size());
  if (free_slots_.empty()) {
    slots_.emplace_back();
  } else {
    index = free_slots_.back();
    free_slots_.pop_back();
  }
  Slot& slot = slots_[index];
  slot.action = std::move(action);
  slot.period = period;
  slot.serial = period > Duration::zero() ? slot.gen : 0;
  slot.priority = priority;
  enqueue(index, at);
  return index;
}

void Engine::enqueue(std::uint32_t index, SimTime at) {
  Slot& slot = slots_[index];
  slot.state = SlotState::kQueued;
  heap_.push_back(Key{
      at, static_cast<std::uint64_t>(slot.priority) << kSeqBits | ++scheduled_,
      index, slot.gen});
  std::push_heap(heap_.begin(), heap_.end(), fires_later);
}

void Engine::release(std::uint32_t index) {
  slots_[index].action = nullptr;
  slots_[index].state = SlotState::kFree;
  free_slots_.push_back(index);
}

EventId Engine::schedule_at(SimTime at, Action action, EventPriority priority) {
  if (at < now_) {
    throw std::invalid_argument("Engine::schedule_at: time in the past");
  }
  const std::uint32_t index =
      add(at, std::move(action), Duration::zero(), priority);
  return make_id(index, slots_[index].gen);
}

EventId Engine::schedule_in(Duration delay, Action action,
                            EventPriority priority) {
  if (delay < Duration::zero()) {
    throw std::invalid_argument("Engine::schedule_in: negative delay");
  }
  return schedule_at(now_ + delay, std::move(action), priority);
}

Timer Engine::every(Duration period, Action action, EventPriority priority) {
  return every_from(now_ + period, period, std::move(action), priority);
}

Timer Engine::every_from(SimTime first, Duration period, Action action,
                         EventPriority priority) {
  if (period <= Duration::zero() || first < now_) {
    throw std::invalid_argument("Engine::every: bad period or first firing");
  }
  const std::uint32_t index = add(first, std::move(action), period, priority);
  return Timer(this, index, slots_[index].serial);
}

bool Timer::cancel() {
  if (engine_ == nullptr) return false;
  Engine::Slot& slot = engine_->slots_[slot_];
  if (slot.serial != serial_) return false;  // stopped, or a later event's
  if (slot.state == Engine::SlotState::kQueued) {
    engine_->cancel(make_id(slot_, slot.gen));  // leaves it dormant
  }
  if (slot.state == Engine::SlotState::kDormant) engine_->release(slot_);
  slot.serial = 0;  // running: fire_top releases it when the action returns
  return true;
}

EventId Timer::next_firing() const {
  if (engine_ == nullptr) return 0;
  const Engine::Slot& slot = engine_->slots_[slot_];
  return slot.serial == serial_ && slot.state == Engine::SlotState::kQueued
             ? make_id(slot_, slot.gen)
             : 0;
}

bool Engine::cancel(EventId id) {
  if (!is_pending(id)) return false;
  // The key stays in the heap until it surfaces; its gen no longer matches.
  const auto index = static_cast<std::uint32_t>(id);
  ++slots_[index].gen;
  ++cancelled_queued_;
  ++cancelled_;
  if (slots_[index].period == Duration::zero()) {
    release(index);
  } else {
    slots_[index].state = SlotState::kDormant;
  }
  return true;
}

bool Engine::is_pending(EventId id) const {
  const auto index = static_cast<std::uint32_t>(id);
  return index < slots_.size() && slots_[index].state == SlotState::kQueued &&
         slots_[index].gen == id >> 32;
}

bool Engine::live_front() {
  while (!heap_.empty() &&
         heap_.front().gen != slots_[heap_.front().slot].gen) {
    std::pop_heap(heap_.begin(), heap_.end(), fires_later);
    heap_.pop_back();
    --cancelled_queued_;
  }
  return !heap_.empty();
}

void Engine::fire_top() {
  std::pop_heap(heap_.begin(), heap_.end(), fires_later);
  const Key key = heap_.back();
  heap_.pop_back();
  Slot& slot = slots_[key.slot];
  ++slot.gen;
  now_ = key.at;
  ++fired_;
  // Move the action out of its slot: it may schedule events that reuse the
  // slot or grow slots_.
  Action action = std::move(slot.action);
  if (slot.period == Duration::zero()) {
    release(key.slot);
    action();
    return;
  }
  slot.state = SlotState::kRunning;
  action();
  Slot& series = slots_[key.slot];
  if (series.serial == 0) {
    release(key.slot);  // stopped from its own action
  } else {
    series.action = std::move(action);
    enqueue(key.slot, now_ + series.period);
  }
}

bool Engine::step() {
  if (!live_front()) return false;
  fire_top();
  EASIS_PROFILE_COUNT("sim.events_fired", 1);
  return true;
}

void Engine::run_until(SimTime until) {
  EASIS_PROFILE_SPAN("sim.run_until");
  const std::uint64_t fired_before = fired_;
  while (live_front() && heap_.front().at <= until) fire_top();
  if (now_ < until) now_ = until;
  // One counter add per call, not one per event.
  EASIS_PROFILE_COUNT("sim.events_fired", fired_ - fired_before);
}

void Engine::run_all() {
  while (step()) {
  }
}

void TimerGroup::add(EventId id) {
  if (events_.size() >= prune_at_) {
    std::erase_if(events_,
                  [this](EventId id) { return !engine_.is_pending(id); });
    prune_at_ = std::max(kMinPrune, 2 * events_.size());
  }
  events_.push_back(id);
}

void TimerGroup::add(Timer timer) { timers_.push_back(timer); }

void TimerGroup::cancel_all() {
  for (const EventId id : events_) engine_.cancel(id);
  for (Timer& timer : timers_) timer.cancel();
  events_.clear();
  timers_.clear();
  prune_at_ = kMinPrune;
}

}  // namespace easis::sim
