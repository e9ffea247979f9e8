// Program Flow Checking Unit (paper §3.2.2).
//
// Checks the execution sequence of safety-critical runnables against a
// look-up table of permitted predecessor/successor pairs — the paper's
// deliberately cheap alternative to embedded-signature control-flow
// checking (CFCSS). One flow context is kept per task; a task's job
// boundary (termination) legally resets the context.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "sim/time.hpp"
#include "util/ids.hpp"
#include "wdg/types.hpp"

namespace easis::wdg {

class ProgramFlowCheckingUnit {
 public:
  using ErrorCallback = std::function<void(
      RunnableId executed, RunnableId predecessor, TaskId, sim::SimTime)>;

  /// Registers a runnable for flow monitoring on its task.
  void add_monitored(RunnableId runnable, TaskId task);
  [[nodiscard]] bool monitors(RunnableId runnable) const;

  /// Permits `succ` to execute directly after `pred` (within one job).
  void add_edge(RunnableId pred, RunnableId succ);
  /// Permits `runnable` as the first monitored runnable of a job of its
  /// task. The runnable must already be monitored. Tasks without any
  /// registered entry point accept any start.
  void add_entry_point(RunnableId runnable);

  /// Execution notification (from the heartbeat glue). Unmonitored
  /// runnables are transparent: they neither advance nor corrupt the flow.
  void on_execution(RunnableId runnable, TaskId task, sim::SimTime now,
                    const ErrorCallback& on_error);

  /// Job boundary: a terminated task starts a fresh flow next activation.
  void task_boundary(TaskId task);

  /// Clears dynamic state (flow contexts), keeps the look-up table.
  void reset();

  // --- introspection ---------------------------------------------------------
  [[nodiscard]] bool edge_allowed(RunnableId pred, RunnableId succ) const;
  [[nodiscard]] bool is_entry_point(RunnableId runnable) const;
  [[nodiscard]] std::size_t edge_count() const;
  [[nodiscard]] std::vector<RunnableId> monitored_runnables() const;
  [[nodiscard]] std::vector<RunnableId> successors_of(RunnableId pred) const;
  [[nodiscard]] std::vector<RunnableId> entry_points_of(TaskId task) const;
  /// Task the runnable is flow-monitored on (invalid if unmonitored).
  [[nodiscard]] TaskId task_of(RunnableId runnable) const;
  /// Last monitored runnable executed in `task`'s current job, if any.
  [[nodiscard]] RunnableId flow_context(TaskId task) const;
  [[nodiscard]] std::uint64_t checks_performed() const { return checks_; }

 private:
  std::unordered_map<RunnableId, TaskId> monitored_;
  std::unordered_map<RunnableId, std::unordered_set<RunnableId>> successors_;
  /// Per-task permitted entry points (the task of the entry runnable).
  std::unordered_map<TaskId, std::unordered_set<RunnableId>> entry_points_;
  /// Flow context per task, indexed by the TaskId value; an invalid
  /// RunnableId means "no context" (the next runnable starts a job).
  std::vector<RunnableId> contexts_;
  std::uint64_t checks_ = 0;
};

}  // namespace easis::wdg
