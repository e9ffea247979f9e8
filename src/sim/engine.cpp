#include "sim/engine.hpp"

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
  queue_.push(Event{at, static_cast<int>(priority), id, std::move(action)});
  return id;
}

EventId Engine::schedule_in(Duration delay, Action action,
                            EventPriority priority) {
  if (delay < Duration::zero()) {
    throw std::invalid_argument("Engine::schedule_in: negative delay");
  }
  return schedule_at(now_ + delay, std::move(action), priority);
}

void Engine::every(Duration period, Action action, EventPriority priority) {
  schedule_in(
      period,
      [this, period, priority, action = std::move(action)]() mutable {
        action();
        every(period, std::move(action), priority);
      },
      priority);
}

bool Engine::cancel(EventId id) {
  if (id == 0 || id >= next_id_ || settled_[id - 1]) return false;
  // Lazy cancellation: settle the id now; skip its event when popped.
  settled_[id - 1] = true;
  ++cancelled_queued_;
  return true;
}

bool Engine::drop_cancelled_top() {
  if (!settled_[queue_.top().id - 1]) return false;
  queue_.pop();
  --cancelled_queued_;
  return true;
}

void Engine::fire_top() {
  // Move the action out instead of copying it: Later reads only at,
  // priority and id, which the move leaves intact for the pop.
  Event ev = std::move(const_cast<Event&>(queue_.top()));
  queue_.pop();
  settled_[ev.id - 1] = true;
  now_ = ev.at;
  ++fired_;
  EASIS_PROFILE_COUNT("sim.events_fired", 1);
  ev.action();
}

bool Engine::fire_next() {
  while (!queue_.empty()) {
    if (drop_cancelled_top()) continue;
    fire_top();
    return true;
  }
  return false;
}

bool Engine::step() { return fire_next(); }

void Engine::run_until(SimTime until) {
  EASIS_PROFILE_SPAN("sim.run_until");
  while (!queue_.empty()) {
    // Peek past cancelled events without firing.
    if (drop_cancelled_top()) continue;
    if (queue_.top().at > until) break;
    fire_top();
  }
  if (now_ < until) now_ = until;
}

void Engine::run_all() {
  while (fire_next()) {
  }
}

std::size_t Engine::pending_events() const {
  return queue_.size() - cancelled_queued_;
}

}  // namespace easis::sim
