// OSEK-like kernel simulated on the discrete-event engine.
//
// Implements the OS services the EASIS platform relies on: fixed-priority
// preemptive scheduling with FIFO order per priority, basic/extended tasks,
// multiple activation requests, OSEK events, resources with immediate
// priority ceiling, counters + alarms, and the OSEK hook routines. Task
// execution consumes modelled CPU budgets (see job.hpp), so timing faults
// (blocking, starvation, excessive dispatch) arise with real scheduling
// semantics.
//
// Deviations from OSEK/VDX, documented:
//  - WaitEvent is expressed as a per-segment wait mask; the satisfied bits
//    are cleared automatically when the task resumes (OSEK requires an
//    explicit ClearEvent).
//  - TerminateTask is implicit at job end; `kill_task` additionally allows
//    forcible termination of another task (needed by the Fault Management
//    Framework's application restart treatment, as in AUTOSAR
//    TerminateApplication).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "os/job.hpp"
#include "os/os_types.hpp"
#include "os/resources.hpp"
#include "sim/engine.hpp"
#include "sim/time.hpp"
#include "util/ids.hpp"
#include "util/result.hpp"

namespace easis::os {

struct TaskConfig {
  std::string name;
  Priority priority = 0;
  bool preemptable = true;
  /// Extended tasks may wait on events and cannot queue activations.
  bool extended = false;
  /// Additional activation requests that may queue while the task is not
  /// suspended (basic tasks only).
  std::uint32_t max_pending_activations = 0;
  bool auto_start = false;
};

struct CounterConfig {
  std::string name;
  /// Tick length for hardware-driven counters; ignored for software ones.
  sim::Duration tick = sim::Duration::millis(1);
  std::uint64_t max_allowed_value = 0xFFFF;
  /// Hardware counters advance with simulation time; software counters
  /// advance only via increment_counter().
  bool hardware_driven = true;
};

/// What an alarm does when it expires.
struct AlarmActionActivateTask {
  TaskId task;
};
struct AlarmActionSetEvent {
  TaskId task;
  EventMask mask;
};
struct AlarmActionCallback {
  std::function<void()> callback;
};
using AlarmAction =
    std::variant<AlarmActionActivateTask, AlarmActionSetEvent,
                 AlarmActionCallback>;

/// Passive observer of scheduling events; monitors (software watchdog
/// baselines, tracing) subscribe without perturbing the kernel.
class KernelObserver {
 public:
  virtual ~KernelObserver() = default;
  virtual void on_task_activated(TaskId, sim::SimTime) {}
  /// Task received the CPU (first dispatch of a job or resume).
  virtual void on_task_dispatched(TaskId, sim::SimTime) {}
  virtual void on_task_preempted(TaskId, sim::SimTime) {}
  virtual void on_task_waiting(TaskId, sim::SimTime) {}
  virtual void on_task_released(TaskId, sim::SimTime) {}
  virtual void on_task_terminated(TaskId, sim::SimTime) {}
  virtual void on_segment_start(TaskId, RunnableId, sim::SimTime) {}
  virtual void on_segment_complete(TaskId, RunnableId, sim::SimTime) {}
  virtual void on_service_error(Status, std::string_view /*api*/,
                                sim::SimTime) {}
};

class Kernel {
 public:
  explicit Kernel(sim::Engine& engine);
  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  // --- configuration (before start) --------------------------------------
  TaskId create_task(TaskConfig config);
  void set_job_factory(TaskId task, JobFactory factory);
  ResourceId create_resource(std::string name, Priority ceiling);
  CounterId create_counter(CounterConfig config);
  AlarmId create_alarm(CounterId counter, AlarmAction action,
                       std::string name = {});

  /// Activates auto-start tasks and starts the hardware counters at tick 0.
  void start();
  [[nodiscard]] bool started() const { return started_; }

  /// ECU software reset: stops everything, clears all dynamic state
  /// (activations, alarms, counters, events, resources), cancels the
  /// pending segment completions and alarm expiries, and counts the reset.
  /// Static configuration (tasks, resources, counters, alarms) survives;
  /// call start() to boot again.
  void software_reset();
  [[nodiscard]] std::uint32_t reset_count() const { return resets_; }

  // --- OSEK task services -------------------------------------------------
  Status activate_task(TaskId task);
  /// Forcibly terminates a task in any state (see header comment).
  Status kill_task(TaskId task);
  /// ChainTask: terminates the running task's job and activates `next`.
  Status chain_task(TaskId next);
  /// Explicit scheduling point for non-preemptable tasks.
  Status schedule();
  [[nodiscard]] TaskState task_state(TaskId task) const;
  [[nodiscard]] std::optional<TaskId> running_task() const;

  // --- OSEK event services ------------------------------------------------
  Status set_event(TaskId task, EventMask mask);
  Status clear_event(TaskId task, EventMask mask);
  [[nodiscard]] EventMask get_event(TaskId task) const;

  // --- OSEK resource services (immediate priority ceiling) ----------------
  Status get_resource(ResourceId resource);
  Status release_resource(ResourceId resource);
  [[nodiscard]] bool resource_held(ResourceId resource) const;

  // --- OSEK counters and alarms -------------------------------------------
  Status increment_counter(CounterId counter);
  [[nodiscard]] std::uint64_t counter_ticks(CounterId counter) const;
  Status set_rel_alarm(AlarmId alarm, std::uint64_t offset_ticks,
                       std::uint64_t cycle_ticks);
  Status cancel_alarm(AlarmId alarm);
  [[nodiscard]] bool alarm_armed(AlarmId alarm) const;
  /// OSEK GetAlarm: ticks until the alarm expires (kNoFunc if not armed).
  util::Result<std::uint64_t, Status> alarm_remaining_ticks(
      AlarmId alarm) const;

  // --- category-2 interrupt service routines --------------------------------
  /// Registers an ISR with a modelled handler cost. Internally an ISR is a
  /// task above every application priority (OSEK category 2: may call
  /// ActivateTask/SetEvent, scheduled on exit).
  TaskId create_isr(std::string name, sim::Duration cost,
                    std::function<void()> handler);
  /// Fires the ISR (hardware interrupt). Pending triggers queue (up to 8).
  Status trigger_isr(TaskId isr);
  /// Priority level above which ISR tasks live.
  static constexpr Priority kIsrPriorityBase = 1'000'000;

  // --- hooks and observers --------------------------------------------------
  void set_pre_task_hook(std::function<void(TaskId)> hook);
  void set_post_task_hook(std::function<void(TaskId)> hook);
  void set_error_hook(std::function<void(Status, std::string_view)> hook);
  void add_observer(KernelObserver* observer);
  void remove_observer(KernelObserver* observer);

  // --- modelled resource accounting (resource supervision extension) --------
  /// Installs the task's declarative budget (zero fields = unbudgeted).
  /// Budgets are static configuration and survive software_reset().
  void set_task_resource_budget(TaskId task, TaskResourceBudget budget);
  [[nodiscard]] const TaskResourceBudget& task_resource_budget(
      TaskId task) const;
  /// Models a heap allocation by `task`. Requests that would exceed the
  /// budget are denied (false) and counted in denied_allocations.
  bool task_alloc(TaskId task, std::uint64_t bytes);
  /// Models a heap free; clamps at zero (double frees are harmless here).
  void task_free(TaskId task, std::uint64_t bytes);
  /// Global handle/descriptor pool shared by every task; zero = unlimited.
  void set_handle_pool_capacity(std::uint32_t capacity);
  [[nodiscard]] std::uint32_t handle_pool_capacity() const {
    return handle_pool_capacity_;
  }
  [[nodiscard]] std::uint32_t handles_in_use() const {
    return handles_in_use_;
  }
  /// Acquires `count` handles for `task`; denied (false) when the task
  /// budget or the global pool would be exceeded.
  bool task_acquire_handles(TaskId task, std::uint32_t count = 1);
  void task_release_handles(TaskId task, std::uint32_t count = 1);
  [[nodiscard]] const TaskResourceUsage& task_resource_usage(
      TaskId task) const;
  /// Releases everything `task` holds and clears its diagnostic counters:
  /// the "restart with pool reclaim" fault treatment.
  void reclaim_task_resources(TaskId task);
  /// Total modelled CPU time consumed by all tasks (including ISRs) since
  /// start/reset, including the in-flight slice of a running segment. The
  /// input of the CPU-load supervision: utilisation over a window is
  /// delta(cpu_busy_time) / delta(wall).
  [[nodiscard]] sim::Duration cpu_busy_time() const;

  // --- introspection --------------------------------------------------------
  [[nodiscard]] const std::string& task_name(TaskId task) const;
  [[nodiscard]] Priority task_priority(TaskId task) const;
  [[nodiscard]] std::size_t task_count() const { return tasks_.size(); }
  /// Virtual CPU time consumed by the current (or last) job of `task`.
  [[nodiscard]] sim::Duration job_consumed(TaskId task) const;
  /// Total virtual CPU time consumed by `task` since start/reset.
  [[nodiscard]] sim::Duration total_consumed(TaskId task) const;
  /// Number of completed jobs since start/reset.
  [[nodiscard]] std::uint64_t jobs_completed(TaskId task) const;
  [[nodiscard]] sim::Engine& engine() { return engine_; }
  [[nodiscard]] sim::SimTime now() const { return engine_.now(); }

 private:
  struct Tcb {
    TaskId self;
    TaskConfig config;
    JobFactory factory;
    TaskState state = TaskState::kSuspended;
    Job job;
    std::size_t segment_index = 0;
    bool segment_entered = false;
    sim::Duration remaining = sim::Duration::zero();
    sim::SimTime segment_started_at;
    sim::EventId completion_event = 0;
    EventMask pending_events = 0;
    EventMask waited_mask = 0;
    std::uint32_t queued_activations = 0;
    std::vector<ResourceId> held_resources;
    sim::Duration job_consumed = sim::Duration::zero();
    sim::Duration total_consumed = sim::Duration::zero();
    std::uint64_t jobs_completed = 0;
    TaskResourceBudget resource_budget;
    TaskResourceUsage resource_usage;
  };

  struct Resource {
    std::string name;
    Priority ceiling = 0;
    TaskId holder;  // invalid when free
  };

  struct Alarm {
    std::string name;
    CounterId counter;
    AlarmAction action;
    bool armed = false;
    std::uint64_t expiry_tick = 0;
    std::uint64_t cycle_ticks = 0;
  };

  struct Counter {
    CounterConfig config;
    std::uint64_t ticks = 0;  // software counters; hardware ones derive it
    sim::SimTime origin;      // hardware counters: the instant of tick 0
    std::vector<AlarmId> alarms;
    /// Hardware counters: the one pending event, at the earliest armed
    /// alarm's expiry (none while no alarm is armed or the kernel is down).
    sim::EventId expiry = 0;
    sim::SimTime expiry_at;
  };

  /// RAII guard deferring dispatch to the outermost kernel entry.
  class Section {
   public:
    explicit Section(Kernel& k) : kernel_(k) { ++kernel_.section_depth_; }
    ~Section() {
      if (--kernel_.section_depth_ == 0) {
        if (kernel_.pending_dispatch_) kernel_.do_dispatch();
        kernel_.recycle_retired_jobs();
      }
    }
    Section(const Section&) = delete;
    Section& operator=(const Section&) = delete;

   private:
    Kernel& kernel_;
  };

  sim::Engine& engine_;
  std::vector<std::unique_ptr<Tcb>> tasks_;
  std::vector<Resource> resources_;
  std::vector<Counter> counters_;
  std::vector<Alarm> alarms_;
  // Ready queues: highest priority first, FIFO within a priority.
  std::map<Priority, std::deque<TaskId>, std::greater<Priority>> ready_;
  TaskId running_;
  int section_depth_ = 0;
  bool pending_dispatch_ = false;
  bool yield_requested_ = false;
  /// Jobs whose tasks finished/were killed while a segment callback of
  /// that job might still be on the call stack; destroying them
  /// immediately would free the executing std::function (see Section).
  std::vector<Job> retired_jobs_;
  /// Cleared retired jobs whose storage the next build_job reuses.
  std::vector<Job> spare_jobs_;
  bool started_ = false;
  std::uint32_t resets_ = 0;
  std::uint32_t handle_pool_capacity_ = 0;  // zero = unlimited
  std::uint32_t handles_in_use_ = 0;

  std::function<void(TaskId)> pre_task_hook_;
  std::function<void(TaskId)> post_task_hook_;
  std::function<void(Status, std::string_view)> error_hook_;
  /// Slots of observers removed during a notification are null until the
  /// outermost notification compacts the list.
  std::vector<KernelObserver*> observers_;
  int notify_depth_ = 0;
  bool observers_removed_ = false;

  [[nodiscard]] Tcb* tcb(TaskId id);
  [[nodiscard]] const Tcb* tcb(TaskId id) const;
  [[nodiscard]] Priority effective_priority(const Tcb& t) const;
  [[nodiscard]] TaskId id_of(const Tcb& t) const;

  Status fail(Status s, std::string_view api);
  void request_dispatch();
  void do_dispatch();
  [[nodiscard]] TaskId highest_ready() const;
  void enqueue_ready(TaskId id, bool front);
  void remove_from_ready(TaskId id);
  void begin_or_resume_segment(Tcb& t);
  void preempt_running();
  void handle_segment_complete(TaskId id);
  /// Advances past the completed segment; blocks, finishes or continues.
  void advance_job(Tcb& t);
  void finish_job(Tcb& t);
  void retire_job(Tcb& t);
  /// Clears the retired jobs into the spare pool (outermost Section end).
  void recycle_retired_jobs();
  void build_job(Tcb& t);
  void release_all_resources(Tcb& t);
  /// Unwrapped tick count: elapsed ticks since origin for hardware counters.
  [[nodiscard]] std::uint64_t elapsed_ticks(const Counter& counter) const;
  /// Fires the counter's alarms due now, in creation order.
  void fire_due_alarms(CounterId id);
  /// Moves the counter's expiry event to its earliest armed alarm.
  void rearm_counter(CounterId id);
  void fire_alarm(Alarm& alarm);

  /// Calls every observer in place. An observer added from a callback is
  /// first called by the next notification; one removed from a callback
  /// is not called again (its slot is null until the list is compacted).
  template <typename Fn>
  void notify(Fn&& fn) {
    ++notify_depth_;
    const std::size_t count = observers_.size();
    for (std::size_t i = 0; i < count; ++i) {
      if (KernelObserver* o = observers_[i]) fn(*o);
    }
    if (--notify_depth_ == 0 && observers_removed_) compact_observers();
  }
  void compact_observers();
};

}  // namespace easis::os
