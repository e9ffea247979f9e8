#include "sim/engine.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "profile/profiler.hpp"

namespace easis::sim {

EventId Engine::schedule_at(SimTime at, Action action, EventPriority priority) {
  if (at < now_) {
    throw std::invalid_argument("Engine::schedule_at: time in the past");
  }
  const EventId id = next_id_++;
  settled_.push_back(false);
  std::uint32_t slot = 0;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(actions_.size());
    actions_.push_back(std::move(action));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    actions_[slot] = std::move(action);
  }
  heap_.push_back(
      Key{at, static_cast<std::uint64_t>(priority) << kIdBits | id, slot});
  std::push_heap(heap_.begin(), heap_.end(), fires_later);
  return id;
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
  const std::uint64_t key = next_series_++;
  Series& series = series_.emplace(key, Series{key, period, priority,
                                               std::move(action)})
                       .first->second;
  schedule_series(series, first);
  return Timer(this, key);
}

void Engine::schedule_series(Series& series, SimTime at) {
  series.next = schedule_at(
      at, [this, &series] { fire_series(series); }, series.priority);
}

void Engine::fire_series(Series& series) {
  series.next = 0;
  series.action();
  if (series.stopped) {
    series_.erase(series.key);
  } else {
    schedule_series(series, now_ + series.period);
  }
}

bool Engine::cancel_series(std::uint64_t key) {
  const auto it = series_.find(key);
  if (it == series_.end() || it->second.stopped) return false;
  if (it->second.next == 0) {
    // Cancelled from its own action: fire_series erases it on return.
    it->second.stopped = true;
  } else {
    cancel(it->second.next);
    series_.erase(it);
  }
  return true;
}

bool Timer::cancel() {
  return engine_ != nullptr && engine_->cancel_series(series_);
}

bool Engine::cancel(EventId id) {
  if (!is_pending(id)) return false;
  // Lazy cancellation: settle the id now; skip its event when popped.
  settled_[id - 1] = true;
  ++cancelled_queued_;
  ++cancelled_;
  return true;
}

bool Engine::is_pending(EventId id) const {
  return id != 0 && id < next_id_ && !settled_[id - 1];
}

Engine::Key Engine::pop_top() {
  std::pop_heap(heap_.begin(), heap_.end(), fires_later);
  const Key key = heap_.back();
  heap_.pop_back();
  free_slots_.push_back(key.slot);
  return key;
}

bool Engine::drop_cancelled_top() {
  if (!settled_[(heap_.front().order & kIdMask) - 1]) return false;
  actions_[pop_top().slot] = nullptr;
  --cancelled_queued_;
  return true;
}

void Engine::fire_top() {
  const Key key = pop_top();
  // Move the action out of its slot: it may schedule events that reuse the
  // slot or grow actions_.
  Action action = std::move(actions_[key.slot]);
  settled_[(key.order & kIdMask) - 1] = true;
  now_ = key.at;
  ++fired_;
  action();
}

bool Engine::fire_next() {
  while (!heap_.empty()) {
    if (drop_cancelled_top()) continue;
    fire_top();
    EASIS_PROFILE_COUNT("sim.events_fired", 1);
    return true;
  }
  return false;
}

bool Engine::step() { return fire_next(); }

void Engine::run_until(SimTime until) {
  EASIS_PROFILE_SPAN("sim.run_until");
  const std::uint64_t fired_before = fired_;
  while (!heap_.empty()) {
    // Peek past cancelled events without firing.
    if (drop_cancelled_top()) continue;
    if (heap_.front().at > until) break;
    fire_top();
  }
  if (now_ < until) now_ = until;
  // One counter add per call, not one per event.
  EASIS_PROFILE_COUNT("sim.events_fired", fired_ - fired_before);
}

void Engine::run_all() {
  while (fire_next()) {
  }
}

std::size_t Engine::pending_events() const {
  return heap_.size() - cancelled_queued_;
}

void TimerGroup::add(EventId id) {
  if (events_.size() >= prune_at_) {
    std::erase_if(events_,
                  [this](EventId id) { return !engine_.is_pending(id); });
    prune_at_ = std::max(kMinPrune, 2 * events_.size());
  }
  events_.push_back(id);
}

void TimerGroup::add(Timer timer) { series_.push_back(timer); }

void TimerGroup::cancel_all() {
  for (const EventId id : events_) engine_.cancel(id);
  for (Timer& timer : series_) timer.cancel();
  events_.clear();
  series_.clear();
  prune_at_ = kMinPrune;
}

}  // namespace easis::sim
