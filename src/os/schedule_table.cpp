#include "os/schedule_table.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace easis::os {

ScheduleTable::ScheduleTable(Kernel& kernel, std::string name,
                             sim::Duration round)
    : kernel_(kernel), name_(std::move(name)), round_(round) {
  if (round <= sim::Duration::zero()) {
    throw std::invalid_argument("ScheduleTable: round must be positive");
  }
}

void ScheduleTable::add_expiry_point(ExpiryPoint point) {
  if (running_) {
    throw std::logic_error("ScheduleTable: cannot modify while running");
  }
  if (point.offset < sim::Duration::zero() || point.offset >= round_) {
    throw std::invalid_argument("ScheduleTable: offset outside round");
  }
  points_.push_back(point);
  std::stable_sort(points_.begin(), points_.end(),
                   [](const ExpiryPoint& a, const ExpiryPoint& b) {
                     return a.offset < b.offset;
                   });
}

void ScheduleTable::start(sim::Duration initial_offset) {
  if (running_) throw std::logic_error("ScheduleTable: already running");
  running_ = true;
  const sim::SimTime first = kernel_.now() + initial_offset;
  schedule_expiries(first);
  // Each round end counts the round and lays out the next one.
  timers_.add(kernel_.engine().every_from(
      first + round_, round_,
      [this] {
        ++rounds_;
        schedule_expiries(kernel_.now());
      },
      sim::EventPriority::kKernel));
}

void ScheduleTable::stop() {
  running_ = false;
  timers_.cancel_all();
}

void ScheduleTable::schedule_expiries(sim::SimTime round_start) {
  for (const ExpiryPoint& point : points_) {
    timers_.add(kernel_.engine().schedule_at(
        round_start + point.offset,
        [this, task = point.task] { kernel_.activate_task(task); },
        sim::EventPriority::kKernel));
  }
}

}  // namespace easis::os
