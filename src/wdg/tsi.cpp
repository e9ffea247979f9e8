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

/// The index of `id`'s record, appending one for a new id. An insertion
/// can reorder the index map, so `order` is then read from it afresh.
template <typename Id, typename Record>
std::uint32_t record_index(std::unordered_map<Id, std::uint32_t>& index,
                           std::vector<Record>& records,
                           std::vector<std::uint32_t>& order, Id id) {
  const auto [it, inserted] =
      index.try_emplace(id, static_cast<std::uint32_t>(records.size()));
  if (inserted) {
    records.emplace_back().id = id;
    order.clear();
    for (const auto& [key, i] : index) order.push_back(i);
  }
  return it->second;
}

}  // namespace

void TaskStateIndicationUnit::add_runnable(RunnableId runnable, TaskId task,
                                           ApplicationId application) {
  if (elements_.contains(runnable)) {
    throw std::logic_error("TSI: runnable already registered");
  }
  const std::uint32_t t = record_index(task_index_, tasks_, task_order_, task);
  const std::uint32_t a =
      record_index(app_index_, apps_, app_order_, application);
  tasks_[t].elements.push_back(
      &elements_.emplace(runnable, Element{t, a}).first->second);
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
      ++tasks_[e.task].tripped;
      ++apps_[e.application].tripped;
    }
    if (telemetry::enabled()) {
      telemetry::Event event;
      event.time = now;
      event.component = telemetry::Component::kTsi;
      event.kind = telemetry::EventKind::kThresholdTrip;
      event.runnable = runnable;
      event.task = tasks_[e.task].id;
      event.application = apps_[e.application].id;
      event.detail = std::string(to_string(type)) + " count reached " +
                     std::to_string(threshold);
      telemetry::emit(std::move(event));
    }
  }
  derive_states(now);
}

void TaskStateIndicationUnit::derive_states(sim::SimTime now) {
  std::uint32_t faulty_count = 0;
  bool changed = false;
  for (const TaskGroup& task : tasks_) {
    if (task.tripped > 0) ++faulty_count;
    changed = changed || task.derived() != task.health;
  }
  for (const Group<ApplicationId>& app : apps_) {
    changed = changed || app.derived() != app.health;
  }
  const Health new_ecu = faulty_count >= ecu_faulty_task_limit_
                             ? Health::kFaulty
                             : Health::kOk;
  if (!changed && new_ecu == ecu_health_) return;

  // Snapshot every new state before the first callback. A callback's
  // treatment may clear a task, which derives again from inside this call;
  // each entry below is then compared with the state that nested call left.
  const std::size_t task_base = task_targets_.size();
  for (const std::uint32_t i : task_order_) {
    task_targets_.push_back({i, tasks_[i].derived()});
  }
  const std::size_t task_end = task_targets_.size();
  const std::size_t app_base = app_targets_.size();
  for (const std::uint32_t i : app_order_) {
    app_targets_.push_back({i, apps_[i].derived()});
  }
  const std::size_t app_end = app_targets_.size();

  // Announce the changes, tasks first. Entries are copied out by index
  // and no record is held across a callback: a nested derive may grow the
  // buffers.
  for (std::size_t k = task_base; k < task_end; ++k) {
    const Target target = task_targets_[k];
    TaskGroup& task = tasks_[target.index];
    if (task.health == target.health) continue;
    task.health = target.health;
    const TaskId id = task.id;
    emit_state_change(telemetry::EventKind::kTaskStateChange, now,
                      target.health, id, ApplicationId{});
    if (task_cb_) task_cb_(id, target.health, now);
  }
  for (std::size_t k = app_base; k < app_end; ++k) {
    const Target target = app_targets_[k];
    Group<ApplicationId>& app = apps_[target.index];
    if (app.health == target.health) continue;
    app.health = target.health;
    const ApplicationId id = app.id;
    emit_state_change(telemetry::EventKind::kAppStateChange, now,
                      target.health, TaskId{}, id);
    if (app_cb_) app_cb_(id, target.health, now);
  }
  task_targets_.resize(task_base);
  app_targets_.resize(app_base);
  if (new_ecu != ecu_health_) {
    ecu_health_ = new_ecu;
    emit_state_change(telemetry::EventKind::kEcuStateChange, now, new_ecu,
                      TaskId{}, ApplicationId{});
    if (ecu_cb_) ecu_cb_(new_ecu, now);
  }
}

Health TaskStateIndicationUnit::task_health(TaskId task) const {
  auto it = task_index_.find(task);
  return it == task_index_.end() ? Health::kOk : tasks_[it->second].health;
}

Health TaskStateIndicationUnit::application_health(ApplicationId app) const {
  auto it = app_index_.find(app);
  return it == app_index_.end() ? Health::kOk : apps_[it->second].health;
}

std::uint32_t TaskStateIndicationUnit::error_count(RunnableId runnable,
                                                   ErrorType type) const {
  auto it = elements_.find(runnable);
  if (it == elements_.end()) return 0;
  return it->second.counts[static_cast<std::size_t>(type)];
}

SupervisionReport TaskStateIndicationUnit::report(RunnableId runnable) const {
  auto it = elements_.find(runnable);
  if (it == elements_.end()) {
    throw std::out_of_range("TSI: unknown runnable");
  }
  const Element& e = it->second;
  SupervisionReport r;
  r.runnable = runnable;
  r.task = tasks_[e.task].id;
  r.application = apps_[e.application].id;
  r.aliveness_errors =
      e.counts[static_cast<std::size_t>(ErrorType::kAliveness)];
  r.arrival_rate_errors =
      e.counts[static_cast<std::size_t>(ErrorType::kArrivalRate)];
  r.program_flow_errors =
      e.counts[static_cast<std::size_t>(ErrorType::kProgramFlow)];
  r.accumulated_aliveness_errors =
      e.counts[static_cast<std::size_t>(ErrorType::kAccumulatedAliveness)];
  r.deadline_errors = e.counts[static_cast<std::size_t>(ErrorType::kDeadline)];
  r.communication_errors =
      e.counts[static_cast<std::size_t>(ErrorType::kCommunication)];
  r.nvm_corruption_errors =
      e.counts[static_cast<std::size_t>(ErrorType::kNvmCorruption)];
  r.memory_budget_errors =
      e.counts[static_cast<std::size_t>(ErrorType::kMemoryBudget)];
  r.handle_exhaustion_errors =
      e.counts[static_cast<std::size_t>(ErrorType::kHandleExhaustion)];
  r.queue_overflow_errors =
      e.counts[static_cast<std::size_t>(ErrorType::kQueueOverflow)];
  r.cpu_overload_errors =
      e.counts[static_cast<std::size_t>(ErrorType::kCpuOverload)];
  r.thermal_errors = e.counts[static_cast<std::size_t>(ErrorType::kThermal)];
  r.filesystem_errors =
      e.counts[static_cast<std::size_t>(ErrorType::kFilesystem)];
  r.check_rule_errors =
      e.counts[static_cast<std::size_t>(ErrorType::kCheckRule)];
  r.power_mode_errors =
      e.counts[static_cast<std::size_t>(ErrorType::kPowerMode)];
  return r;
}

std::vector<TaskId> TaskStateIndicationUnit::faulty_tasks() const {
  std::vector<TaskId> out;
  for (const std::uint32_t i : task_order_) {
    if (tasks_[i].health == Health::kFaulty) out.push_back(tasks_[i].id);
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
  --tasks_[e.task].tripped;
  --apps_[e.application].tripped;
}

void TaskStateIndicationUnit::clear_task(TaskId task, sim::SimTime now) {
  auto it = task_index_.find(task);
  if (it != task_index_.end()) {
    for (Element* e : tasks_[it->second].elements) clear_element(*e);
  }
  derive_states(now);
}

void TaskStateIndicationUnit::reset(sim::SimTime now) {
  for (auto& [runnable, e] : elements_) clear_element(e);
  derive_states(now);
}

}  // namespace easis::wdg
