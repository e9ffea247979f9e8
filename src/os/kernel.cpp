#include "os/kernel.hpp"

#include <algorithm>
#include <cassert>

#include "profile/profiler.hpp"

namespace easis::os {

Kernel::Kernel(sim::Engine& engine) : engine_(engine) {}

// --- configuration ----------------------------------------------------------

TaskId Kernel::create_task(TaskConfig config) {
  auto t = std::make_unique<Tcb>();
  t->self = TaskId(static_cast<TaskId::underlying_type>(tasks_.size()));
  t->config = std::move(config);
  tasks_.push_back(std::move(t));
  return tasks_.back()->self;
}

void Kernel::set_job_factory(TaskId task, JobFactory factory) {
  Tcb* t = tcb(task);
  assert(t != nullptr);
  t->factory = std::move(factory);
}

ResourceId Kernel::create_resource(std::string name, Priority ceiling) {
  resources_.push_back(Resource{std::move(name), ceiling, TaskId{}});
  return ResourceId(
      static_cast<ResourceId::underlying_type>(resources_.size() - 1));
}

CounterId Kernel::create_counter(CounterConfig config) {
  assert(!config.hardware_driven || config.tick > sim::Duration::zero());
  // Counters created on a running system tick from their creation.
  Counter& counter = counters_.emplace_back();
  counter.config = std::move(config);
  counter.origin = now();
  return CounterId(
      static_cast<CounterId::underlying_type>(counters_.size() - 1));
}

AlarmId Kernel::create_alarm(CounterId counter, AlarmAction action,
                             std::string name) {
  assert(counter.value() < counters_.size());
  alarms_.push_back(Alarm{std::move(name), counter, std::move(action)});
  const auto id =
      AlarmId(static_cast<AlarmId::underlying_type>(alarms_.size() - 1));
  counters_[counter.value()].alarms.push_back(id);
  return id;
}

void Kernel::start() {
  assert(!started_);
  started_ = true;
  Section section(*this);
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    if (tasks_[i]->config.auto_start) {
      activate_task(TaskId(static_cast<TaskId::underlying_type>(i)));
    }
  }
  for (std::size_t i = 0; i < counters_.size(); ++i) {
    counters_[i].origin = now();
    // Alarms set before start() expire relative to this origin.
    rearm_counter(CounterId(static_cast<CounterId::underlying_type>(i)));
  }
}

void Kernel::software_reset() {
  ++resets_;
  started_ = false;
  running_ = TaskId{};
  ready_.clear();
  pending_dispatch_ = false;
  yield_requested_ = false;
  for (auto& t : tasks_) {
    if (t->completion_event != 0) engine_.cancel(t->completion_event);
    t->state = TaskState::kSuspended;
    retire_job(*t);
    t->remaining = sim::Duration::zero();
    t->completion_event = 0;
    t->pending_events = 0;
    t->waited_mask = 0;
    t->queued_activations = 0;
    t->held_resources.clear();
    t->job_consumed = sim::Duration::zero();
    t->total_consumed = sim::Duration::zero();
    t->jobs_completed = 0;
    t->resource_usage = TaskResourceUsage{};  // budgets are configuration
  }
  handles_in_use_ = 0;
  for (auto& r : resources_) r.holder = TaskId{};
  for (auto& c : counters_) {
    c.ticks = 0;
    engine_.cancel(c.expiry);
    c.expiry = 0;
  }
  for (auto& a : alarms_) {
    a.armed = false;
    a.expiry_tick = 0;
    a.cycle_ticks = 0;
  }
}

// --- helpers -----------------------------------------------------------------

Kernel::Tcb* Kernel::tcb(TaskId id) {
  if (!id.valid() || id.value() >= tasks_.size()) return nullptr;
  return tasks_[id.value()].get();
}

const Kernel::Tcb* Kernel::tcb(TaskId id) const {
  if (!id.valid() || id.value() >= tasks_.size()) return nullptr;
  return tasks_[id.value()].get();
}

Priority Kernel::effective_priority(const Tcb& t) const {
  Priority p = t.config.priority;
  for (ResourceId r : t.held_resources) {
    p = std::max(p, resources_[r.value()].ceiling);
  }
  return p;
}

TaskId Kernel::id_of(const Tcb& t) const { return t.self; }

Status Kernel::fail(Status s, std::string_view api) {
  notify([&](KernelObserver& o) { o.on_service_error(s, api, now()); });
  if (error_hook_) error_hook_(s, api);
  return s;
}

// --- dispatching --------------------------------------------------------------

void Kernel::request_dispatch() { pending_dispatch_ = true; }

TaskId Kernel::highest_ready() const {
  for (const auto& [prio, queue] : ready_) {
    if (!queue.empty()) return queue.front();
  }
  return TaskId{};
}

void Kernel::enqueue_ready(TaskId id, bool front) {
  Tcb& t = *tcb(id);
  auto& queue = ready_[effective_priority(t)];
  if (front) {
    queue.push_front(id);
  } else {
    queue.push_back(id);
  }
}

void Kernel::remove_from_ready(TaskId id) {
  for (auto& [prio, queue] : ready_) {
    auto it = std::find(queue.begin(), queue.end(), id);
    if (it != queue.end()) {
      queue.erase(it);
      return;
    }
  }
}

void Kernel::do_dispatch() {
  EASIS_PROFILE_SPAN("os.dispatch");
  for (;;) {
    pending_dispatch_ = false;
    const TaskId top_id = highest_ready();
    Tcb* running = tcb(running_);
    if (running == nullptr) {
      if (!top_id.valid()) break;
      remove_from_ready(top_id);
      Tcb& next = *tcb(top_id);
      running_ = top_id;
      next.state = TaskState::kRunning;
      notify([&](KernelObserver& o) { o.on_task_dispatched(top_id, now()); });
      if (pre_task_hook_) pre_task_hook_(top_id);
      begin_or_resume_segment(next);
    } else if (top_id.valid() && running->config.preemptable &&
               effective_priority(*tcb(top_id)) >
                   effective_priority(*running)) {
      preempt_running();
      continue;
    }
    if (!pending_dispatch_) break;
  }
}

void Kernel::begin_or_resume_segment(Tcb& t) {
  const TaskId id = id_of(t);
  if (t.segment_index >= t.job.size()) {
    finish_job(t);
    return;
  }
  Segment& seg = t.job[t.segment_index];
  if (!t.segment_entered) {
    t.segment_entered = true;
    t.remaining = seg.cost;
    notify([&](KernelObserver& o) { o.on_segment_start(id, seg.runnable, now()); });
    if (seg.on_start) seg.on_start();
    // on_start may have blocked/killed this very task (e.g. chain_task);
    // only continue if it is still the running task.
    if (running_ != id || t.state != TaskState::kRunning) return;
  }
  t.segment_started_at = now();
  t.completion_event = engine_.schedule_at(
      now() + t.remaining, [this, id] { handle_segment_complete(id); },
      sim::EventPriority::kDispatch);
}

void Kernel::preempt_running() {
  Tcb& t = *tcb(running_);
  const TaskId id = running_;
  if (t.completion_event != 0) {
    engine_.cancel(t.completion_event);
    t.completion_event = 0;
  }
  const sim::Duration elapsed = now() - t.segment_started_at;
  t.remaining -= elapsed;
  t.job_consumed += elapsed;
  t.total_consumed += elapsed;
  t.state = TaskState::kReady;
  running_ = TaskId{};
  // OSEK: a preempted task stays the first of its priority's ready queue.
  enqueue_ready(id, /*front=*/true);
  notify([&](KernelObserver& o) { o.on_task_preempted(id, now()); });
  request_dispatch();
}

void Kernel::handle_segment_complete(TaskId id) {
  EASIS_PROFILE_SPAN("os.segment");
  EASIS_PROFILE_COUNT("os.segments_completed", 1);
  Section section(*this);
  Tcb& t = *tcb(id);
  assert(running_ == id);
  assert(t.segment_index < t.job.size());
  t.completion_event = 0;
  const sim::Duration elapsed = now() - t.segment_started_at;
  t.job_consumed += elapsed;
  t.total_consumed += elapsed;
  t.remaining = sim::Duration::zero();
  t.segment_entered = false;
  Segment& seg = t.job[t.segment_index];
  notify([&](KernelObserver& o) {
    o.on_segment_complete(id, seg.runnable, now());
  });
  if (seg.on_complete) seg.on_complete();
  // on_complete may have killed or reset this task; re-check.
  if (running_ != id || t.state != TaskState::kRunning) return;
  ++t.segment_index;
  advance_job(t);
  request_dispatch();
}

void Kernel::advance_job(Tcb& t) {
  const TaskId id = id_of(t);
  if (t.segment_index >= t.job.size()) {
    finish_job(t);
    return;
  }
  Segment& next = t.job[t.segment_index];
  if (next.wait_mask != 0 && (t.pending_events & next.wait_mask) == 0) {
    // Block on the events (extended task wait point).
    t.waited_mask = next.wait_mask;
    t.state = TaskState::kWaiting;
    running_ = TaskId{};
    notify([&](KernelObserver& o) { o.on_task_waiting(id, now()); });
    return;
  }
  if (next.wait_mask != 0) {
    // Events already pending: consume and continue immediately.
    t.pending_events &= ~next.wait_mask;
  }
  if (yield_requested_) {
    // Explicit scheduling point (Schedule()): yield to a higher-priority
    // ready task even if this task is non-preemptable.
    yield_requested_ = false;
    const TaskId top = highest_ready();
    if (top.valid() &&
        effective_priority(*tcb(top)) > effective_priority(t)) {
      t.state = TaskState::kReady;
      running_ = TaskId{};
      enqueue_ready(id, /*front=*/true);
      notify([&](KernelObserver& o) { o.on_task_preempted(id, now()); });
      request_dispatch();
      return;
    }
  }
  begin_or_resume_segment(t);
}

void Kernel::finish_job(Tcb& t) {
  const TaskId id = id_of(t);
  yield_requested_ = false;  // job end is itself a scheduling point
  if (!t.held_resources.empty()) {
    // OSEK: terminating while holding a resource is an error; recover by
    // force-releasing so the system can continue.
    fail(Status::kResource, "TerminateTask");
    release_all_resources(t);
  }
  running_ = TaskId{};
  ++t.jobs_completed;
  retire_job(t);
  if (post_task_hook_) post_task_hook_(id);
  notify([&](KernelObserver& o) { o.on_task_terminated(id, now()); });
  if (t.queued_activations > 0) {
    // The queued request was already announced when it arrived.
    --t.queued_activations;
    build_job(t);
    t.state = TaskState::kReady;
    t.job_consumed = sim::Duration::zero();
    enqueue_ready(id, /*front=*/false);
  } else {
    t.state = TaskState::kSuspended;
  }
  request_dispatch();
}

void Kernel::retire_job(Tcb& t) {
  // A segment callback of this job may still be executing on the stack;
  // park the job until the outermost kernel section unwinds (see Section).
  if (t.job.capacity() != 0) retired_jobs_.push_back(std::move(t.job));
  t.job.clear();
  t.segment_index = 0;
  t.segment_entered = false;
}

void Kernel::recycle_retired_jobs() {
  // Every callback frame has unwound: destroying the segments is safe, and
  // their storage serves the next activations.
  for (Job& job : retired_jobs_) {
    job.clear();
    spare_jobs_.push_back(std::move(job));
  }
  retired_jobs_.clear();
}

void Kernel::build_job(Tcb& t) {
  assert(t.job.empty());
  if (t.job.capacity() == 0 && !spare_jobs_.empty()) {
    t.job = std::move(spare_jobs_.back());
    spare_jobs_.pop_back();
  }
  if (t.factory) t.factory(t.job);
  t.segment_index = 0;
  t.segment_entered = false;
}

void Kernel::release_all_resources(Tcb& t) {
  for (ResourceId r : t.held_resources) {
    resources_[r.value()].holder = TaskId{};
  }
  t.held_resources.clear();
}

// --- task services -------------------------------------------------------------

Status Kernel::activate_task(TaskId task) {
  Section section(*this);
  Tcb* t = tcb(task);
  if (t == nullptr) return fail(Status::kId, "ActivateTask");
  if (t->state != TaskState::kSuspended) {
    if (t->config.extended ||
        t->queued_activations >= t->config.max_pending_activations) {
      return fail(Status::kLimit, "ActivateTask");
    }
    ++t->queued_activations;
    // The activation request counts from now (OSEK multiple activation).
    notify([&](KernelObserver& o) { o.on_task_activated(task, now()); });
    return Status::kOk;
  }
  build_job(*t);
  t->pending_events = 0;
  t->job_consumed = sim::Duration::zero();
  notify([&](KernelObserver& o) { o.on_task_activated(task, now()); });
  // An empty first wait mask cannot occur at activation in OSEK (tasks
  // start at their entry), but our job model allows it: settle it here.
  Segment* first =
      t->job.empty() ? nullptr : &t->job.front();
  if (first != nullptr && first->wait_mask != 0) {
    t->waited_mask = first->wait_mask;
    t->state = TaskState::kWaiting;
    notify([&](KernelObserver& o) { o.on_task_waiting(task, now()); });
    return Status::kOk;
  }
  t->state = TaskState::kReady;
  enqueue_ready(task, /*front=*/false);
  request_dispatch();
  return Status::kOk;
}

Status Kernel::kill_task(TaskId task) {
  Section section(*this);
  Tcb* t = tcb(task);
  if (t == nullptr) return fail(Status::kId, "KillTask");
  if (t->state == TaskState::kSuspended) return Status::kOk;
  if (t->state == TaskState::kRunning) {
    if (t->completion_event != 0) {
      engine_.cancel(t->completion_event);
      t->completion_event = 0;
    }
    running_ = TaskId{};
  } else if (t->state == TaskState::kReady) {
    remove_from_ready(task);
  }
  release_all_resources(*t);
  t->state = TaskState::kSuspended;
  retire_job(*t);
  t->pending_events = 0;
  t->waited_mask = 0;
  t->queued_activations = 0;
  notify([&](KernelObserver& o) { o.on_task_terminated(task, now()); });
  request_dispatch();
  return Status::kOk;
}

Status Kernel::chain_task(TaskId next) {
  Section section(*this);
  if (!running_.valid()) return fail(Status::kCallLevel, "ChainTask");
  Tcb* n = tcb(next);
  if (n == nullptr) return fail(Status::kId, "ChainTask");
  const TaskId self = running_;
  // Skip the remainder of the running job, then activate the successor.
  Tcb& t = *tcb(self);
  t.segment_index = t.job.size();
  if (t.completion_event != 0) {
    engine_.cancel(t.completion_event);
    t.completion_event = 0;
  }
  finish_job(t);
  return activate_task(next);
}

Status Kernel::schedule() {
  Section section(*this);
  if (!running_.valid()) return fail(Status::kCallLevel, "Schedule");
  // Takes effect at the next segment boundary (see advance_job): segment
  // callbacks run at budget-accounting boundaries, so an immediate switch
  // here would corrupt the running segment's bookkeeping.
  yield_requested_ = true;
  return Status::kOk;
}

TaskState Kernel::task_state(TaskId task) const {
  const Tcb* t = tcb(task);
  assert(t != nullptr);
  return t->state;
}

std::optional<TaskId> Kernel::running_task() const {
  if (!running_.valid()) return std::nullopt;
  return running_;
}

// --- events ----------------------------------------------------------------------

Status Kernel::set_event(TaskId task, EventMask mask) {
  Section section(*this);
  Tcb* t = tcb(task);
  if (t == nullptr) return fail(Status::kId, "SetEvent");
  if (!t->config.extended) return fail(Status::kAccess, "SetEvent");
  if (t->state == TaskState::kSuspended) {
    return fail(Status::kState, "SetEvent");
  }
  t->pending_events |= mask;
  if (t->state == TaskState::kWaiting &&
      (t->pending_events & t->waited_mask) != 0) {
    t->pending_events &= ~t->waited_mask;
    t->waited_mask = 0;
    t->state = TaskState::kReady;
    enqueue_ready(task, /*front=*/false);
    notify([&](KernelObserver& o) { o.on_task_released(task, now()); });
    request_dispatch();
  }
  return Status::kOk;
}

Status Kernel::clear_event(TaskId task, EventMask mask) {
  Section section(*this);
  Tcb* t = tcb(task);
  if (t == nullptr) return fail(Status::kId, "ClearEvent");
  if (!t->config.extended) return fail(Status::kAccess, "ClearEvent");
  t->pending_events &= ~mask;
  return Status::kOk;
}

EventMask Kernel::get_event(TaskId task) const {
  const Tcb* t = tcb(task);
  assert(t != nullptr);
  return t->pending_events;
}

// --- resources -------------------------------------------------------------------

Status Kernel::get_resource(ResourceId resource) {
  Section section(*this);
  if (!running_.valid()) return fail(Status::kCallLevel, "GetResource");
  if (!resource.valid() || resource.value() >= resources_.size()) {
    return fail(Status::kId, "GetResource");
  }
  Resource& r = resources_[resource.value()];
  if (r.holder.valid()) return fail(Status::kAccess, "GetResource");
  Tcb& t = *tcb(running_);
  if (t.config.priority > r.ceiling) {
    // Immediate ceiling protocol requires ceiling >= every user's priority.
    return fail(Status::kAccess, "GetResource");
  }
  r.holder = running_;
  t.held_resources.push_back(resource);
  return Status::kOk;
}

Status Kernel::release_resource(ResourceId resource) {
  Section section(*this);
  if (!running_.valid()) return fail(Status::kCallLevel, "ReleaseResource");
  if (!resource.valid() || resource.value() >= resources_.size()) {
    return fail(Status::kId, "ReleaseResource");
  }
  Resource& r = resources_[resource.value()];
  if (r.holder != running_) return fail(Status::kNoFunc, "ReleaseResource");
  Tcb& t = *tcb(running_);
  // OSEK: resources are released LIFO.
  if (t.held_resources.empty() || t.held_resources.back() != resource) {
    return fail(Status::kNoFunc, "ReleaseResource");
  }
  t.held_resources.pop_back();
  r.holder = TaskId{};
  // Dropping the ceiling may enable a preemption.
  request_dispatch();
  return Status::kOk;
}

bool Kernel::resource_held(ResourceId resource) const {
  assert(resource.valid() && resource.value() < resources_.size());
  return resources_[resource.value()].holder.valid();
}

// --- counters and alarms --------------------------------------------------------

std::uint64_t Kernel::elapsed_ticks(const Counter& counter) const {
  if (!counter.config.hardware_driven) return counter.ticks;
  if (!started_) return 0;
  return static_cast<std::uint64_t>((now() - counter.origin).as_micros() /
                                    counter.config.tick.as_micros());
}

void Kernel::fire_due_alarms(CounterId id) {
  // By index, re-reading the tick each time: an action may create alarms
  // or counters, or reset and restart the kernel.
  for (std::size_t i = 0; i < counters_[id.value()].alarms.size(); ++i) {
    const Counter& counter = counters_[id.value()];
    Alarm& a = alarms_[counter.alarms[i].value()];
    const std::uint64_t ticks = elapsed_ticks(counter);
    if (!a.armed || a.expiry_tick != ticks) continue;
    if (a.cycle_ticks > 0) {
      a.expiry_tick = ticks + a.cycle_ticks;
    } else {
      a.armed = false;
    }
    fire_alarm(a);
  }
}

void Kernel::rearm_counter(CounterId id) {
  Counter& c = counters_[id.value()];
  if (!c.config.hardware_driven) return;
  std::uint64_t next = UINT64_MAX;
  for (AlarmId alarm_id : c.alarms) {
    const Alarm& a = alarms_[alarm_id.value()];
    if (a.armed) next = std::min(next, a.expiry_tick);
  }
  if (!started_ || next == UINT64_MAX) {
    engine_.cancel(c.expiry);
    c.expiry = 0;
    return;
  }
  const sim::SimTime at =
      c.origin + c.config.tick * static_cast<std::int64_t>(next);
  if (c.expiry_at == at && engine_.is_pending(c.expiry)) return;
  engine_.cancel(c.expiry);
  c.expiry_at = at;
  c.expiry = engine_.schedule_at(
      at,
      [this, id] {
        Section section(*this);
        fire_due_alarms(id);
        rearm_counter(id);
      },
      sim::EventPriority::kKernel);
}

void Kernel::fire_alarm(Alarm& alarm) {
  std::visit(
      [this](const auto& action) {
        using T = std::decay_t<decltype(action)>;
        if constexpr (std::is_same_v<T, AlarmActionActivateTask>) {
          activate_task(action.task);
        } else if constexpr (std::is_same_v<T, AlarmActionSetEvent>) {
          set_event(action.task, action.mask);
        } else {
          if (action.callback) action.callback();
        }
      },
      alarm.action);
}

Status Kernel::increment_counter(CounterId counter) {
  Section section(*this);
  if (!counter.valid() || counter.value() >= counters_.size()) {
    return fail(Status::kId, "IncrementCounter");
  }
  Counter& c = counters_[counter.value()];
  if (c.config.hardware_driven) {
    return fail(Status::kAccess, "IncrementCounter");
  }
  ++c.ticks;
  fire_due_alarms(counter);
  return Status::kOk;
}

std::uint64_t Kernel::counter_ticks(CounterId counter) const {
  assert(counter.valid() && counter.value() < counters_.size());
  const Counter& c = counters_[counter.value()];
  return elapsed_ticks(c) % (c.config.max_allowed_value + 1);
}

Status Kernel::set_rel_alarm(AlarmId alarm, std::uint64_t offset_ticks,
                             std::uint64_t cycle_ticks) {
  Section section(*this);
  if (!alarm.valid() || alarm.value() >= alarms_.size()) {
    return fail(Status::kId, "SetRelAlarm");
  }
  if (offset_ticks == 0) return fail(Status::kValue, "SetRelAlarm");
  Alarm& a = alarms_[alarm.value()];
  if (a.armed) return fail(Status::kState, "SetRelAlarm");
  a.armed = true;
  a.expiry_tick = elapsed_ticks(counters_[a.counter.value()]) + offset_ticks;
  a.cycle_ticks = cycle_ticks;
  rearm_counter(a.counter);
  return Status::kOk;
}

Status Kernel::cancel_alarm(AlarmId alarm) {
  Section section(*this);
  if (!alarm.valid() || alarm.value() >= alarms_.size()) {
    return fail(Status::kId, "CancelAlarm");
  }
  Alarm& a = alarms_[alarm.value()];
  if (!a.armed) return fail(Status::kNoFunc, "CancelAlarm");
  a.armed = false;
  rearm_counter(a.counter);
  return Status::kOk;
}

bool Kernel::alarm_armed(AlarmId alarm) const {
  assert(alarm.valid() && alarm.value() < alarms_.size());
  return alarms_[alarm.value()].armed;
}

util::Result<std::uint64_t, Status> Kernel::alarm_remaining_ticks(
    AlarmId alarm) const {
  if (!alarm.valid() || alarm.value() >= alarms_.size()) {
    return Status::kId;
  }
  const Alarm& a = alarms_[alarm.value()];
  if (!a.armed) return Status::kNoFunc;
  const std::uint64_t now_ticks = elapsed_ticks(counters_[a.counter.value()]);
  return a.expiry_tick > now_ticks ? a.expiry_tick - now_ticks
                                   : std::uint64_t{0};
}

// --- ISRs (category 2) ----------------------------------------------------------

TaskId Kernel::create_isr(std::string name, sim::Duration cost,
                          std::function<void()> handler) {
  TaskConfig config;
  config.name = std::move(name);
  config.priority = kIsrPriorityBase;
  config.preemptable = false;  // interrupts run to completion here
  config.max_pending_activations = 8;
  const TaskId id = create_task(config);
  set_job_factory(id, [cost, handler = std::move(handler)](Job& job) {
    Segment& segment = job.emplace_back();
    segment.cost = cost;
    segment.on_complete = handler;
  });
  return id;
}

Status Kernel::trigger_isr(TaskId isr) {
  const Tcb* t = tcb(isr);
  if (t == nullptr || t->config.priority < kIsrPriorityBase) {
    return fail(Status::kId, "TriggerIsr");
  }
  return activate_task(isr);
}

// --- hooks, observers, introspection ----------------------------------------------

void Kernel::set_pre_task_hook(std::function<void(TaskId)> hook) {
  pre_task_hook_ = std::move(hook);
}
void Kernel::set_post_task_hook(std::function<void(TaskId)> hook) {
  post_task_hook_ = std::move(hook);
}
void Kernel::set_error_hook(
    std::function<void(Status, std::string_view)> hook) {
  error_hook_ = std::move(hook);
}

void Kernel::add_observer(KernelObserver* observer) {
  observers_.push_back(observer);
}

void Kernel::remove_observer(KernelObserver* observer) {
  if (notify_depth_ == 0) {
    observers_.erase(
        std::remove(observers_.begin(), observers_.end(), observer),
        observers_.end());
    return;
  }
  std::replace(observers_.begin(), observers_.end(), observer,
               static_cast<KernelObserver*>(nullptr));
  observers_removed_ = true;
}

void Kernel::compact_observers() {
  observers_removed_ = false;
  observers_.erase(
      std::remove(observers_.begin(), observers_.end(), nullptr),
      observers_.end());
}

const std::string& Kernel::task_name(TaskId task) const {
  const Tcb* t = tcb(task);
  assert(t != nullptr);
  return t->config.name;
}

Priority Kernel::task_priority(TaskId task) const {
  const Tcb* t = tcb(task);
  assert(t != nullptr);
  return t->config.priority;
}

sim::Duration Kernel::job_consumed(TaskId task) const {
  const Tcb* t = tcb(task);
  assert(t != nullptr);
  sim::Duration consumed = t->job_consumed;
  if (t->state == TaskState::kRunning && t->completion_event != 0) {
    consumed += now() - t->segment_started_at;
  }
  return consumed;
}

sim::Duration Kernel::total_consumed(TaskId task) const {
  const Tcb* t = tcb(task);
  assert(t != nullptr);
  sim::Duration consumed = t->total_consumed;
  // Include the in-flight slice of a running segment (like job_consumed).
  if (t->state == TaskState::kRunning && t->completion_event != 0) {
    consumed += now() - t->segment_started_at;
  }
  return consumed;
}

std::uint64_t Kernel::jobs_completed(TaskId task) const {
  const Tcb* t = tcb(task);
  assert(t != nullptr);
  return t->jobs_completed;
}

// --- modelled resource accounting --------------------------------------------

void Kernel::set_task_resource_budget(TaskId task, TaskResourceBudget budget) {
  Tcb* t = tcb(task);
  assert(t != nullptr);
  t->resource_budget = budget;
}

const TaskResourceBudget& Kernel::task_resource_budget(TaskId task) const {
  const Tcb* t = tcb(task);
  assert(t != nullptr);
  return t->resource_budget;
}

bool Kernel::task_alloc(TaskId task, std::uint64_t bytes) {
  Tcb* t = tcb(task);
  assert(t != nullptr);
  TaskResourceUsage& u = t->resource_usage;
  const std::uint64_t budget = t->resource_budget.memory_bytes;
  if (budget != 0 && u.memory_bytes + bytes > budget) {
    ++u.denied_allocations;
    return false;
  }
  u.memory_bytes += bytes;
  u.memory_peak = std::max(u.memory_peak, u.memory_bytes);
  return true;
}

void Kernel::task_free(TaskId task, std::uint64_t bytes) {
  Tcb* t = tcb(task);
  assert(t != nullptr);
  TaskResourceUsage& u = t->resource_usage;
  u.memory_bytes -= std::min(u.memory_bytes, bytes);
}

void Kernel::set_handle_pool_capacity(std::uint32_t capacity) {
  handle_pool_capacity_ = capacity;
}

bool Kernel::task_acquire_handles(TaskId task, std::uint32_t count) {
  Tcb* t = tcb(task);
  assert(t != nullptr);
  TaskResourceUsage& u = t->resource_usage;
  const std::uint32_t budget = t->resource_budget.handles;
  const bool over_budget = budget != 0 && u.handles + count > budget;
  const bool pool_exhausted =
      handle_pool_capacity_ != 0 &&
      handles_in_use_ + count > handle_pool_capacity_;
  if (over_budget || pool_exhausted) {
    ++u.denied_handles;
    return false;
  }
  u.handles += count;
  u.handles_peak = std::max(u.handles_peak, u.handles);
  handles_in_use_ += count;
  return true;
}

void Kernel::task_release_handles(TaskId task, std::uint32_t count) {
  Tcb* t = tcb(task);
  assert(t != nullptr);
  TaskResourceUsage& u = t->resource_usage;
  const std::uint32_t released = std::min(u.handles, count);
  u.handles -= released;
  handles_in_use_ -= std::min(handles_in_use_, released);
}

const TaskResourceUsage& Kernel::task_resource_usage(TaskId task) const {
  const Tcb* t = tcb(task);
  assert(t != nullptr);
  return t->resource_usage;
}

void Kernel::reclaim_task_resources(TaskId task) {
  Tcb* t = tcb(task);
  assert(t != nullptr);
  handles_in_use_ -= std::min(handles_in_use_, t->resource_usage.handles);
  t->resource_usage = TaskResourceUsage{};
}

sim::Duration Kernel::cpu_busy_time() const {
  sim::Duration busy = sim::Duration::zero();
  for (const auto& t : tasks_) {
    busy += t->total_consumed;
    if (t->state == TaskState::kRunning && t->completion_event != 0) {
      busy += now() - t->segment_started_at;
    }
  }
  return busy;
}

}  // namespace easis::os
