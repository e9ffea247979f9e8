#include "wdg/tsi.hpp"

#include <stdexcept>
#include <string>

#include "profile/profiler.hpp"
#include "telemetry/event_bus.hpp"

namespace easis::wdg {

TaskStateIndicationUnit::TaskStateIndicationUnit(
    Thresholds thresholds, std::uint32_t ecu_faulty_task_limit)
    : thresholds_(thresholds), ecu_faulty_task_limit_(ecu_faulty_task_limit) {
  if (ecu_faulty_task_limit_ == 0) {
    throw std::invalid_argument("TSI: ecu_faulty_task_limit must be >= 1");
  }
}

namespace {

/// Publishes one task, application or ECU state change.
void emit_state_change(telemetry::EventKind kind, sim::SimTime now,
                       Health health, TaskId task, ApplicationId app) {
  if (!telemetry::enabled()) return;
  telemetry::Event event;
  event.time = now;
  event.component = telemetry::Component::kTsi;
  event.kind = kind;
  event.task = task;
  event.application = app;
  event.detail = to_string(health);
  telemetry::emit(std::move(event));
}

}  // namespace

void TaskStateIndicationUnit::add_runnable(RunnableId runnable, TaskId task,
                                           ApplicationId application) {
  if (elements_.contains(runnable)) {
    throw std::logic_error("TSI: runnable already registered");
  }
  TaskGroup& task_state = tasks_[task];
  Element& e = elements_
                   .emplace(runnable, Element{task, application, &task_state,
                                              &apps_[application]})
                   .first->second;
  task_state.elements.push_back(&e);
}

void TaskStateIndicationUnit::report_error(RunnableId runnable, ErrorType type,
                                           sim::SimTime now) {
  EASIS_PROFILE_SPAN("wdg.tsi_report");
  auto it = elements_.find(runnable);
  if (it == elements_.end()) return;
  Element& e = it->second;
  const std::uint32_t count = ++e.counts[static_cast<std::size_t>(type)];
  const std::uint32_t threshold =
      thresholds_.by_type[static_cast<std::size_t>(type)];
  // A zero threshold disables the check for that error class; counts grow
  // by one, so reaching the threshold is the moment the class trips.
  if (threshold > 0 && count == threshold) {
    if (!e.tripped) {
      e.tripped = true;
      ++e.task_state->tripped;
      ++e.app_state->tripped;
    }
    if (telemetry::enabled()) {
      telemetry::Event event;
      event.time = now;
      event.component = telemetry::Component::kTsi;
      event.kind = telemetry::EventKind::kThresholdTrip;
      event.runnable = runnable;
      event.task = e.task;
      event.application = e.application;
      event.detail = std::string(to_string(type)) + " count reached " +
                     std::to_string(threshold);
      telemetry::emit(std::move(event));
    }
  }
  derive_states(now);
}

void TaskStateIndicationUnit::derive_states(sim::SimTime now) {
  using Level = Transition::Level;
  std::uint32_t faulty_count = 0;
  for (auto& [id, task] : tasks_) {
    if (task.tripped > 0) ++faulty_count;
    if (task.health == task.derived()) continue;
    task.health = task.derived();
    pending_.push_back({Level::kTask, id, {}, task.health, now});
  }
  for (auto& [id, app] : apps_) {
    if (app.health == app.derived()) continue;
    app.health = app.derived();
    pending_.push_back({Level::kApplication, {}, id, app.health, now});
  }
  const Health ecu = faulty_count >= ecu_faulty_task_limit_ ? Health::kFaulty
                                                            : Health::kOk;
  if (ecu != ecu_health_) {
    ecu_health_ = ecu;
    pending_.push_back({Level::kEcu, {}, {}, ecu, now});
  }
  if (dispatching_) return;  // the dispatch further up announces them

  dispatching_ = true;
  // Ends the dispatch also when a callback throws.
  struct Finish {
    TaskStateIndicationUnit& unit;
    ~Finish() {
      unit.pending_.clear();
      unit.dispatching_ = false;
    }
  } finish{*this};
  // Indexed and copied out: a callback's treatment may append.
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    const Transition t = pending_[i];
    switch (t.level) {
      case Level::kTask:
        emit_state_change(telemetry::EventKind::kTaskStateChange, t.time,
                          t.health, t.task, ApplicationId{});
        if (task_cb_) task_cb_(t.task, t.health, t.time);
        break;
      case Level::kApplication:
        emit_state_change(telemetry::EventKind::kAppStateChange, t.time,
                          t.health, TaskId{}, t.application);
        if (app_cb_) app_cb_(t.application, t.health, t.time);
        break;
      case Level::kEcu:
        emit_state_change(telemetry::EventKind::kEcuStateChange, t.time,
                          t.health, TaskId{}, ApplicationId{});
        if (ecu_cb_) ecu_cb_(t.health, t.time);
        break;
    }
  }
}

Health TaskStateIndicationUnit::task_health(TaskId task) const {
  auto it = tasks_.find(task);
  return it == tasks_.end() ? Health::kOk : it->second.health;
}

Health TaskStateIndicationUnit::application_health(ApplicationId app) const {
  auto it = apps_.find(app);
  return it == apps_.end() ? Health::kOk : it->second.health;
}

std::uint32_t TaskStateIndicationUnit::error_count(RunnableId runnable,
                                                   ErrorType type) const {
  auto it = elements_.find(runnable);
  if (it == elements_.end()) return 0;
  return it->second.counts[static_cast<std::size_t>(type)];
}

std::vector<TaskId> TaskStateIndicationUnit::faulty_tasks() const {
  std::vector<TaskId> out;
  for (const auto& [id, task] : tasks_) {
    if (task.health == Health::kFaulty) out.push_back(id);
  }
  return out;
}

void TaskStateIndicationUnit::set_task_state_callback(TaskStateCallback cb) {
  task_cb_ = std::move(cb);
}
void TaskStateIndicationUnit::set_application_state_callback(
    ApplicationStateCallback cb) {
  app_cb_ = std::move(cb);
}
void TaskStateIndicationUnit::set_ecu_state_callback(EcuStateCallback cb) {
  ecu_cb_ = std::move(cb);
}

void TaskStateIndicationUnit::clear_element(Element& e) {
  e.counts.fill(0);
  if (!e.tripped) return;
  e.tripped = false;
  --e.task_state->tripped;
  --e.app_state->tripped;
}

void TaskStateIndicationUnit::clear_task(TaskId task, sim::SimTime now) {
  auto it = tasks_.find(task);
  if (it != tasks_.end()) {
    for (Element* e : it->second.elements) clear_element(*e);
  }
  derive_states(now);
}

void TaskStateIndicationUnit::reset(sim::SimTime now) {
  for (auto& [runnable, e] : elements_) clear_element(e);
  derive_states(now);
}

}  // namespace easis::wdg
