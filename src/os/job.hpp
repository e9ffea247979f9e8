// Execution-budget job model.
//
// A task activation executes a Job: a sequence of Segments, each with a
// modelled execution cost (virtual CPU time) and functional callbacks.
// One segment per runnable gives exactly the granularity the paper's
// watchdog monitors. The scheduler tracks the remaining budget of the
// running segment, so preemption and blocking happen at microsecond
// resolution while the functional bodies stay plain C++ callables.
#pragma once

#include <functional>
#include <vector>

#include "sim/time.hpp"
#include "util/ids.hpp"
#include "os/os_types.hpp"

namespace easis::os {

struct Segment {
  /// Virtual CPU time this segment consumes.
  sim::Duration cost = sim::Duration::zero();
  /// Runs when the segment first receives the CPU (not on resume).
  std::function<void()> on_start;
  /// Runs when the segment's budget is fully consumed.
  std::function<void()> on_complete;
  /// If nonzero, the task waits for any of these events before the segment
  /// begins (extended tasks only). Satisfied bits are consumed on release.
  EventMask wait_mask = 0;
  /// Which runnable this segment executes (invalid for glue/OS segments).
  RunnableId runnable;
};

using Job = std::vector<Segment>;

/// Fills the job of each task activation. The kernel hands the factory an
/// empty job whose storage it recycles from retired jobs, so a factory that
/// only appends segments allocates nothing in steady state. Factories let
/// the RTE compose runnable sequences and let the error injector rewrite
/// them.
using JobFactory = std::function<void(Job&)>;

}  // namespace easis::os
