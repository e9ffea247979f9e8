// Time-triggered schedule table (OSEKTime-style dispatcher round).
//
// Provides the substrate for the paper's related-work baseline: OSEKTime
// deadline monitoring operates on tasks dispatched at fixed offsets within
// a dispatcher round. Built on top of the kernel's counters/alarms.
#pragma once

#include <string>
#include <vector>

#include "os/kernel.hpp"
#include "sim/engine.hpp"
#include "sim/time.hpp"
#include "util/ids.hpp"

namespace easis::os {

struct ExpiryPoint {
  sim::Duration offset;  // within the round, from round start
  TaskId task;
  /// Deadline relative to the dispatch offset (used by deadline monitors;
  /// zero means "no deadline configured").
  sim::Duration deadline = sim::Duration::zero();
};

class ScheduleTable {
 public:
  /// `round` is the table period; expiry offsets must lie within it.
  ScheduleTable(Kernel& kernel, std::string name, sim::Duration round);

  /// Adds a dispatch point. Must be called before start().
  void add_expiry_point(ExpiryPoint point);

  /// Arms the table: the first round starts `initial_offset` from now.
  void start(sim::Duration initial_offset = sim::Duration::zero());
  void stop();
  [[nodiscard]] bool running() const { return running_; }

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] sim::Duration round() const { return round_; }
  [[nodiscard]] const std::vector<ExpiryPoint>& expiry_points() const {
    return points_;
  }
  [[nodiscard]] std::uint64_t rounds_completed() const { return rounds_; }

 private:
  Kernel& kernel_;
  std::string name_;
  sim::Duration round_;
  std::vector<ExpiryPoint> points_;
  bool running_ = false;
  std::uint64_t rounds_ = 0;
  sim::TimerGroup timers_{kernel_.engine()};  // rounds and dispatch points

  void schedule_expiries(sim::SimTime round_start);
};

}  // namespace easis::os
