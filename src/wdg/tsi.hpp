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
#include <map>
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
  // Elements and task records point at each other's nodes.
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
  /// In id order.
  [[nodiscard]] std::vector<TaskId> faulty_tasks() const;

  // --- state transitions out --------------------------------------------------
  // Each state change is announced once, in the order it was assigned:
  // tasks in id order, then applications in id order, then the ECU. A
  // callback reads states already final for the derive that announced it;
  // what its treatment changes is announced after the transitions queued
  // before it, not from inside the callback.
  void set_task_state_callback(TaskStateCallback cb);
  void set_application_state_callback(ApplicationStateCallback cb);
  void set_ecu_state_callback(EcuStateCallback cb);

  // --- fault-treatment hooks ----------------------------------------------------
  /// Clears the error vector elements of one task (after restart/treatment).
  void clear_task(TaskId task, sim::SimTime now);
  /// Clears everything (ECU software reset).
  void reset(sim::SimTime now);

 private:
  /// A task's or an application's state, with the number of its tripped
  /// elements.
  struct Group {
    Health health = Health::kOk;
    std::uint32_t tripped = 0;
    [[nodiscard]] Health derived() const {
      return tripped > 0 ? Health::kFaulty : Health::kOk;
    }
  };
  struct Element {
    TaskId task;
    ApplicationId application;
    Group* task_state;  // nodes of tasks_ and apps_, which never move
    Group* app_state;
    std::array<std::uint32_t, kErrorTypeCount> counts{};
    /// One error class at or over its non-zero threshold.
    bool tripped = false;
  };
  struct TaskGroup : Group {
    std::vector<Element*> elements;  // nodes of elements_, which never move
  };
  /// One state assignment awaiting its announcement.
  struct Transition {
    enum class Level : std::uint8_t { kTask, kApplication, kEcu } level;
    TaskId task;
    ApplicationId application;
    Health health;
    sim::SimTime time;
  };

  Thresholds thresholds_;
  std::uint32_t ecu_faulty_task_limit_;
  std::unordered_map<RunnableId, Element> elements_;
  /// Keyed by id, so derives assign and announce in id order.
  std::map<TaskId, TaskGroup> tasks_;
  std::map<ApplicationId, Group> apps_;
  Health ecu_health_ = Health::kOk;
  /// Assignments not yet announced, in the order they were made. Only the
  /// outermost derive dispatches them; a derive run by a callback's
  /// treatment appends its own behind them.
  std::vector<Transition> pending_;
  bool dispatching_ = false;

  TaskStateCallback task_cb_;
  ApplicationStateCallback app_cb_;
  EcuStateCallback ecu_cb_;

  /// Zeroes one element's vector and untrips it.
  void clear_element(Element& e);
  /// Assigns task, application and ECU states from the tripped counts,
  /// queues one transition per change and, unless a dispatch is already
  /// running further up the stack, announces the queue.
  void derive_states(sim::SimTime now);
};

}  // namespace easis::wdg
