#include "rte/rte.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "profile/profiler.hpp"
#include "util/logging.hpp"

namespace easis::rte {

namespace {
constexpr std::string_view kLog = "rte";

sim::Duration scale(sim::Duration d, double factor) {
  return sim::Duration::micros(
      static_cast<std::int64_t>(std::llround(d.as_micros() * factor)));
}
}  // namespace

Rte::Rte(os::Kernel& kernel) : kernel_(kernel) {}

ApplicationId Rte::register_application(std::string name) {
  applications_.push_back(ApplicationEntry{std::move(name), {}, {}, true, 0});
  return ApplicationId(
      static_cast<ApplicationId::underlying_type>(applications_.size() - 1));
}

ComponentId Rte::register_component(ApplicationId app, std::string name) {
  if (!app.valid() || app.value() >= applications_.size()) {
    throw std::invalid_argument("Rte::register_component: bad application");
  }
  components_.push_back(ComponentEntry{std::move(name), app, {}});
  const auto id = ComponentId(
      static_cast<ComponentId::underlying_type>(components_.size() - 1));
  applications_[app.value()].components.push_back(id);
  return id;
}

RunnableId Rte::register_runnable(ComponentId component, RunnableSpec spec) {
  if (!component.valid() || component.value() >= components_.size()) {
    throw std::invalid_argument("Rte::register_runnable: bad component");
  }
  runnables_.push_back(
      RunnableEntry{std::move(spec), RunnableControl{}, component, TaskId{}, 0});
  const auto id = RunnableId(
      static_cast<RunnableId::underlying_type>(runnables_.size() - 1));
  components_[component.value()].runnables.push_back(id);
  return id;
}

void Rte::map_runnable(RunnableId runnable, TaskId task) {
  if (finalized_) {
    throw std::logic_error("Rte::map_runnable: already finalized");
  }
  if (!runnable.valid() || runnable.value() >= runnables_.size()) {
    throw std::invalid_argument("Rte::map_runnable: bad runnable");
  }
  RunnableEntry& entry = runnables_[runnable.value()];
  if (entry.task.valid()) {
    throw std::logic_error("Rte::map_runnable: runnable already mapped");
  }
  entry.task = task;
  task_sequences_[task].push_back(runnable);
  // Re-derive the application's task list in first-appearance order over
  // its components and their runnables (the order clear_task_state runs).
  ApplicationEntry& app = applications_[application_of(runnable).value()];
  app.tasks.clear();
  for (ComponentId c : app.components) {
    for (RunnableId r : components_[c.value()].runnables) {
      const TaskId t = task_of(r);
      if (t.valid() &&
          std::find(app.tasks.begin(), app.tasks.end(), t) == app.tasks.end()) {
        app.tasks.push_back(t);
      }
    }
  }
}

void Rte::configure_task_execution(TaskId task, TaskExecutionConfig config) {
  execution_configs_[task] = config;
}

void Rte::finalize() {
  if (finalized_) throw std::logic_error("Rte::finalize: already finalized");
  finalized_ = true;
  for (const auto& [task, _] : task_sequences_) {
    kernel_.set_job_factory(
        task, [this, task](os::Job& job) { build_job(task, job); });
  }
  EASIS_LOG(util::LogLevel::kInfo, kLog)
      << "finalized: " << runnables_.size() << " runnables on "
      << task_sequences_.size() << " tasks";
}

void Rte::append_segment(os::Job& job, RunnableId id, TaskId task) {
  const RunnableEntry& entry = runnables_[id.value()];
  os::Segment& segment = job.emplace_back();
  segment.runnable = id;
  segment.cost = scale(entry.spec.execution_time, entry.control.time_scale);
  segment.on_complete = [this, id, task] {
    RunnableEntry& e = runnables_[id.value()];
    ++e.executions;
    if (e.spec.body && !e.control.skip_body) e.spec.body();
    // Auto-generated glue: aliveness indication to the watchdog.
    if (!e.control.suppress_heartbeat) emit_heartbeat(id, task);
  };
}

void Rte::build_job(TaskId task, os::Job& job) {
  auto it = task_sequences_.find(task);
  assert(it != task_sequences_.end());

  // Base sequence: enabled applications only, honouring repeat controls.
  // Only an injection hook (invalid execution branches / reordering) needs
  // it as a runnable sequence; otherwise segments are appended directly.
  auto tr = transformers_.find(task);
  const bool transformed = tr != transformers_.end() && tr->second;
  std::vector<RunnableId> sequence;
  for (RunnableId id : it->second) {
    const RunnableEntry& entry = runnables_[id.value()];
    if (!application_enabled(application_of(id))) continue;
    for (std::uint32_t i = 0; i < entry.control.repeat; ++i) {
      if (transformed) {
        sequence.push_back(id);
      } else {
        append_segment(job, id, task);
      }
    }
  }
  if (transformed) {
    for (RunnableId id : tr->second(std::move(sequence))) {
      append_segment(job, id, task);
    }
  }

  // Event-driven execution: prepend the wait point, optionally chain the
  // task back onto itself (persistent event server).
  if (auto cfg = execution_configs_.find(task);
      cfg != execution_configs_.end() && !job.empty()) {
    job.front().wait_mask = cfg->second.wait_before;
    if (cfg->second.chain_self) {
      os::Segment& chain = job.emplace_back();
      chain.cost = sim::Duration::zero();
      chain.on_complete = [this, task] { kernel_.chain_task(task); };
    }
  }
}

void Rte::emit_heartbeat(RunnableId runnable, TaskId task) {
  EASIS_PROFILE_SPAN("rte.heartbeat");
  EASIS_PROFILE_COUNT("rte.heartbeats", 1);
  for (const auto& listener : listeners_) {
    listener(runnable, task, kernel_.now());
  }
}

// --- introspection -------------------------------------------------------------

const RunnableSpec& Rte::runnable(RunnableId id) const {
  assert(id.valid() && id.value() < runnables_.size());
  return runnables_[id.value()].spec;
}

const std::string& Rte::runnable_name(RunnableId id) const {
  return runnable(id).name;
}

TaskId Rte::task_of(RunnableId id) const {
  assert(id.valid() && id.value() < runnables_.size());
  return runnables_[id.value()].task;
}

ComponentId Rte::component_of(RunnableId id) const {
  assert(id.valid() && id.value() < runnables_.size());
  return runnables_[id.value()].component;
}

ApplicationId Rte::application_of(RunnableId id) const {
  return components_[component_of(id).value()].application;
}

const std::string& Rte::application_name(ApplicationId id) const {
  assert(id.valid() && id.value() < applications_.size());
  return applications_[id.value()].name;
}

const std::vector<RunnableId>& Rte::runnables_on_task(TaskId task) const {
  static const std::vector<RunnableId> kEmpty;
  auto it = task_sequences_.find(task);
  return it == task_sequences_.end() ? kEmpty : it->second;
}

std::vector<RunnableId> Rte::runnables_of_application(
    ApplicationId app) const {
  assert(app.valid() && app.value() < applications_.size());
  std::vector<RunnableId> out;
  for (ComponentId c : applications_[app.value()].components) {
    const auto& rs = components_[c.value()].runnables;
    out.insert(out.end(), rs.begin(), rs.end());
  }
  return out;
}

const std::vector<TaskId>& Rte::tasks_of_application(
    ApplicationId app) const {
  assert(app.valid() && app.value() < applications_.size());
  return applications_[app.value()].tasks;
}

std::uint64_t Rte::executions(RunnableId id) const {
  assert(id.valid() && id.value() < runnables_.size());
  return runnables_[id.value()].executions;
}

void Rte::add_heartbeat_listener(HeartbeatListener listener) {
  listeners_.push_back(std::move(listener));
}

// --- application lifecycle --------------------------------------------------------

void Rte::set_application_enabled(ApplicationId app, bool enabled) {
  assert(app.valid() && app.value() < applications_.size());
  applications_[app.value()].enabled = enabled;
  if (!enabled) {
    // Termination treatment: drop the in-flight jobs of tasks that now host
    // nothing (the mapping may share tasks with other applications).
    for (TaskId task : tasks_of_application(app)) {
      bool still_used = false;
      for (RunnableId r : runnables_on_task(task)) {
        if (application_enabled(application_of(r))) {
          still_used = true;
          break;
        }
      }
      if (!still_used) kernel_.kill_task(task);
    }
  }
}

bool Rte::application_enabled(ApplicationId app) const {
  assert(app.valid() && app.value() < applications_.size());
  return applications_[app.value()].enabled;
}

void Rte::restart_application(ApplicationId app) {
  assert(app.valid() && app.value() < applications_.size());
  ApplicationEntry& entry = applications_[app.value()];
  ++entry.restarts;
  entry.enabled = true;
  for (TaskId task : tasks_of_application(app)) {
    kernel_.kill_task(task);
    // Restart with pool reclaim: a task restarted for resource exhaustion
    // must not inherit its own leak, or the fresh instance is faulted again
    // within one supervision window.
    kernel_.reclaim_task_resources(task);
    // Periodic tasks come back with their next alarm; event-server tasks
    // wait on events and must be re-activated into their wait point.
    if (auto cfg = execution_configs_.find(task);
        cfg != execution_configs_.end() && cfg->second.wait_before != 0) {
      kernel_.activate_task(task);
    }
  }
}

std::uint32_t Rte::restart_count(ApplicationId app) const {
  assert(app.valid() && app.value() < applications_.size());
  return applications_[app.value()].restarts;
}

// --- injection controls --------------------------------------------------------------

RunnableControl& Rte::control(RunnableId id) {
  assert(id.valid() && id.value() < runnables_.size());
  return runnables_[id.value()].control;
}

void Rte::set_sequence_transformer(TaskId task,
                                   SequenceTransformer transformer) {
  transformers_[task] = std::move(transformer);
}

void Rte::clear_sequence_transformer(TaskId task) {
  transformers_.erase(task);
}

}  // namespace easis::rte
