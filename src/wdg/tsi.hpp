// Task State Indication Unit (paper §3.2.3).
//
// Accumulates per-runnable error reports in an error indication vector per
// task. When one element reaches its threshold the whole task is considered
// faulty; task states roll up to application states and the global ECU
// state using the runnable->task->application mapping information.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "sim/time.hpp"
#include "util/ids.hpp"
#include "wdg/config.hpp"
#include "wdg/types.hpp"

namespace easis::wdg {

class TaskStateIndicationUnit {
 public:
  struct Thresholds {
    /// Per error class; a zero threshold disables that check entirely.
    std::array<std::uint32_t, kErrorTypeCount> by_type{
        3, 3, 3, 3, 3, 3, 1, 3, 3, 3, 3, 3, 3, 3, 3};
    [[nodiscard]] std::uint32_t of(ErrorType t) const {
      return by_type[static_cast<std::size_t>(t)];
    }
  };

  using TaskStateCallback =
      std::function<void(TaskId, Health, sim::SimTime)>;
  using ApplicationStateCallback =
      std::function<void(ApplicationId, Health, sim::SimTime)>;
  using EcuStateCallback = std::function<void(Health, sim::SimTime)>;

  explicit TaskStateIndicationUnit(Thresholds thresholds,
                                   std::uint32_t ecu_faulty_task_limit);
  // Each task record points at its elements inside elements_.
  TaskStateIndicationUnit(const TaskStateIndicationUnit&) = delete;
  TaskStateIndicationUnit& operator=(const TaskStateIndicationUnit&) = delete;

  /// Registers a monitored runnable with its mapping info.
  void add_runnable(RunnableId runnable, TaskId task,
                    ApplicationId application);

  /// Records one error-indication-vector increment and re-derives states.
  void report_error(RunnableId runnable, ErrorType type, sim::SimTime now);

  // --- state queries -----------------------------------------------------------
  [[nodiscard]] Health task_health(TaskId task) const;
  [[nodiscard]] Health application_health(ApplicationId app) const;
  [[nodiscard]] Health ecu_health() const { return ecu_health_; }
  [[nodiscard]] std::uint32_t error_count(RunnableId runnable,
                                          ErrorType type) const;
  [[nodiscard]] SupervisionReport report(RunnableId runnable) const;
  [[nodiscard]] std::vector<TaskId> faulty_tasks() const;

  // --- state transitions out --------------------------------------------------
  void set_task_state_callback(TaskStateCallback cb);
  void set_application_state_callback(ApplicationStateCallback cb);
  void set_ecu_state_callback(EcuStateCallback cb);

  // --- fault-treatment hooks ----------------------------------------------------
  /// Clears the error vector elements of one task (after restart/treatment).
  void clear_task(TaskId task, sim::SimTime now);
  /// Clears everything (ECU software reset).
  void reset(sim::SimTime now);

 private:
  struct Element {
    std::uint32_t task;         // index into tasks_
    std::uint32_t application;  // index into apps_
    std::array<std::uint32_t, kErrorTypeCount> counts{};
    /// One error class at or over its non-zero threshold.
    bool tripped = false;
  };
  /// A task's or an application's state, with the number of its tripped
  /// elements.
  template <typename Id>
  struct Group {
    Id id;
    Health health = Health::kOk;
    std::uint32_t tripped = 0;
    [[nodiscard]] Health derived() const {
      return tripped > 0 ? Health::kFaulty : Health::kOk;
    }
  };
  struct TaskGroup : Group<TaskId> {
    std::vector<Element*> elements;  // nodes of elements_, which never move
  };
  /// The state a derive is to give tasks_[index] or apps_[index].
  struct Target {
    std::uint32_t index;
    Health health;
  };

  Thresholds thresholds_;
  std::uint32_t ecu_faulty_task_limit_;
  std::unordered_map<RunnableId, Element> elements_;
  /// Dense records in registration order, and the index of each id.
  std::vector<TaskGroup> tasks_;
  std::vector<Group<ApplicationId>> apps_;
  std::unordered_map<TaskId, std::uint32_t> task_index_;
  std::unordered_map<ApplicationId, std::uint32_t> app_index_;
  /// The indices in the iteration order of the two index maps, the order
  /// in which state-change callbacks fire.
  std::vector<std::uint32_t> task_order_;
  std::vector<std::uint32_t> app_order_;
  Health ecu_health_ = Health::kOk;
  /// The snapshots of the derives in progress, innermost last: a derive
  /// nested in a callback pushes above its caller's entries and pops them
  /// before it returns, so the buffers are reused without allocating.
  std::vector<Target> task_targets_;
  std::vector<Target> app_targets_;

  TaskStateCallback task_cb_;
  ApplicationStateCallback app_cb_;
  EcuStateCallback ecu_cb_;

  /// Zeroes one element's vector and untrips it.
  void clear_element(Element& e);
  /// Rolls the tripped counts up to task, application and ECU states and
  /// announces each change.
  void derive_states(sim::SimTime now);
};

}  // namespace easis::wdg
