#include "wdg/resource_monitor.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "telemetry/event_bus.hpp"
#include "util/text.hpp"

namespace easis::wdg {

ResourceSupervisionUnit::ResourceSupervisionUnit(SoftwareWatchdog& watchdog,
                                                 os::Kernel& kernel,
                                                 rte::SignalBus& bus)
    : watchdog_(watchdog), kernel_(kernel), bus_(bus) {}

ErrorType ResourceSupervisionUnit::error_type_of(ResourceClass c) {
  switch (c) {
    case ResourceClass::kMemory: return ErrorType::kMemoryBudget;
    case ResourceClass::kHandles: return ErrorType::kHandleExhaustion;
    case ResourceClass::kQueue: return ErrorType::kQueueOverflow;
    case ResourceClass::kCpuLoad: return ErrorType::kCpuOverload;
  }
  return ErrorType::kMemoryBudget;
}

void ResourceSupervisionUnit::add_resource(const SupervisedResource& resource) {
  if (resources_.contains(resource.id)) {
    throw std::logic_error("RSU: resource already registered: " +
                           resource.name);
  }
  if (resource.resource_class == ResourceClass::kQueue &&
      resource.queue_signal.empty()) {
    throw std::logic_error("RSU: queue resource needs a queue_signal: " +
                           resource.name);
  }
  watchdog_.add_virtual_runnable(resource.id, resource.task,
                                 resource.application, "res:" + resource.name);

  State state;
  state.config = resource;
  resources_.emplace(resource.id, std::move(state));
  order_.push_back(resource.id);
}

void ResourceSupervisionUnit::sample(State& state, sim::SimTime now,
                                     double& level, std::uint64_t& usage,
                                     std::uint64_t& budget,
                                     std::uint64_t& denied_total) {
  const SupervisedResource& cfg = state.config;
  level = 0.0;
  usage = 0;
  budget = 0;
  denied_total = 0;
  switch (cfg.resource_class) {
    case ResourceClass::kMemory: {
      const os::TaskResourceUsage& u = kernel_.task_resource_usage(cfg.task);
      usage = u.memory_bytes;
      budget = kernel_.task_resource_budget(cfg.task).memory_bytes;
      denied_total = u.denied_allocations;
      if (budget != 0) level = static_cast<double>(usage) /
                               static_cast<double>(budget);
      break;
    }
    case ResourceClass::kHandles: {
      const os::TaskResourceUsage& u = kernel_.task_resource_usage(cfg.task);
      usage = u.handles;
      budget = kernel_.task_resource_budget(cfg.task).handles;
      if (budget == 0) budget = kernel_.handle_pool_capacity();
      denied_total = u.denied_handles;
      if (budget != 0) level = static_cast<double>(usage) /
                               static_cast<double>(budget);
      break;
    }
    case ResourceClass::kQueue: {
      if (const auto q = bus_.queue_state(cfg.queue_signal)) {
        usage = q->depth;
        budget = q->capacity;
        denied_total = q->overflows;
        if (budget != 0) level = static_cast<double>(usage) /
                                 static_cast<double>(budget);
      }
      break;
    }
    case ResourceClass::kCpuLoad: {
      level = load_average_;
      usage = static_cast<std::uint64_t>(std::llround(load_average_ * 100.0));
      budget = 100;
      break;
    }
  }
  (void)now;
}

void ResourceSupervisionUnit::cycle(sim::SimTime now) {
  ++cycles_;

  // Refresh the modelled load average first so kCpuLoad resources see the
  // utilisation of the cycle that just elapsed.
  const sim::Duration busy = kernel_.cpu_busy_time();
  if (have_last_cycle_ && now > last_cycle_at_) {
    // A software reset zeroes the kernel's busy counters; the post-reset
    // value alone is then the busy share of this cycle.
    const sim::Duration busy_delta =
        busy >= last_busy_ ? busy - last_busy_ : busy;
    const double instantaneous =
        static_cast<double>(busy_delta.as_micros()) /
        static_cast<double>((now - last_cycle_at_).as_micros());
    load_average_ =
        load_alpha_ * instantaneous + (1.0 - load_alpha_) * load_average_;
  }
  last_busy_ = busy;
  last_cycle_at_ = now;
  have_last_cycle_ = true;

  const bool snapshot_cycle =
      snapshot_every_ != 0 && cycles_ % snapshot_every_ == 0;

  for (RunnableId id : order_) {
    State& state = resources_.at(id);
    const SupervisedResource& cfg = state.config;
    double level = 0.0;
    std::uint64_t usage = 0;
    std::uint64_t budget = 0;
    std::uint64_t denied_total = 0;
    sample(state, now, level, usage, budget, denied_total);

    const auto pct =
        static_cast<std::uint64_t>(std::llround(level * 100.0));
    state.last_level_pct = pct;
    state.last_usage = usage;
    state.last_budget = budget;

    // Freeze-frame feed: the offending task's resource level is on the
    // bus when the FMF captures a DTC freeze frame for it.
    bus_.publish("res." + cfg.name + ".level", static_cast<double>(pct), now);

    if (telemetry::enabled() && snapshot_cycle) {
      telemetry::Event event;
      event.time = now;
      event.component = telemetry::Component::kResourceUnit;
      event.kind = telemetry::EventKind::kResourceSnapshot;
      event.runnable = cfg.id;
      event.task = cfg.task;
      event.application = cfg.application;
      event.detail = cfg.name + " level_pct=" + std::to_string(pct) +
                     " usage=" + std::to_string(usage) +
                     " budget=" + std::to_string(budget);
      telemetry::emit(std::move(event));
    }

    const ErrorType type = error_type_of(cfg.resource_class);

    // Exhaustion: the kernel denied a request / the queue overflowed since
    // the last cycle. A denial is already a visible failure — no debounce.
    if (denied_total > state.last_denied) {
      const std::uint64_t denied = denied_total - state.last_denied;
      state.last_denied = denied_total;
      report(state, type, now,
             std::string(to_string(cfg.resource_class)) + " exhaustion on " +
                 cfg.name + ": denied=" + std::to_string(denied) +
                 " level_pct=" + std::to_string(pct));
      continue;  // one report per resource per cycle is enough
    }
    state.last_denied = denied_total;

    // Watermark with transgression window.
    if (cfg.limits.watermark > 0.0 && level >= cfg.limits.watermark) {
      ++state.above_watermark;
      if (state.above_watermark >= cfg.limits.window_cycles) {
        report(state, type, now,
               std::string(to_string(cfg.resource_class)) + " watermark on " +
                   cfg.name + ": level_pct=" + std::to_string(pct) +
                   " usage=" + std::to_string(usage) + " budget=" +
                   std::to_string(budget));
        continue;
      }
    } else {
      state.above_watermark = 0;
    }

    // Leak rate: normalised growth per second over the sample window.
    if (cfg.limits.leak_rate_per_s > 0.0 && cfg.limits.leak_window_cycles > 1) {
      state.samples.push_back(level);
      while (state.samples.size() > cfg.limits.leak_window_cycles) {
        state.samples.pop_front();
      }
      if (state.samples.size() == cfg.limits.leak_window_cycles) {
        const double growth = state.samples.back() - state.samples.front();
        const double window_s =
            static_cast<double>(
                (cfg.limits.leak_window_cycles - 1) *
                watchdog_.config().check_period.as_micros()) /
            1e6;
        if (window_s > 0.0 && growth / window_s > cfg.limits.leak_rate_per_s) {
          report(state, type, now,
                 std::string(to_string(cfg.resource_class)) + " leak on " +
                     cfg.name + ": growth_pct=" +
                     std::to_string(static_cast<std::uint64_t>(
                         std::llround(growth * 100.0))) +
                     " over " +
                     std::to_string(cfg.limits.leak_window_cycles) +
                     " cycles level_pct=" + std::to_string(pct));
        }
      }
    }
  }
}

void ResourceSupervisionUnit::report(State& state, ErrorType type,
                                     sim::SimTime now, std::string detail) {
  ++reports_;
  ++state.reports;
  watchdog_.report_external_error({.runnable = state.config.id,
                                   .type = type,
                                   .time = now,
                                   .detail = std::move(detail)});
}

std::uint64_t ResourceSupervisionUnit::level_pct(RunnableId id) const {
  auto it = resources_.find(id);
  return it == resources_.end() ? 0 : it->second.last_level_pct;
}

std::uint64_t ResourceSupervisionUnit::reports_for(RunnableId id) const {
  auto it = resources_.find(id);
  return it == resources_.end() ? 0 : it->second.reports;
}

std::string ResourceSupervisionUnit::format_snapshot() const {
  std::string out;
  out.reserve(96 * (1 + order_.size()));
  util::append(out, "resource snapshot (load_avg_pct=",
               static_cast<std::uint64_t>(std::llround(load_average_ * 100.0)),
               ")\n");
  for (RunnableId id : order_) {
    const State& state = resources_.at(id);
    const SupervisedResource& cfg = state.config;
    util::append(out, "  res ", cfg.name,
                 " class=", to_string(cfg.resource_class),
                 " level_pct=", state.last_level_pct,
                 " usage=", state.last_usage, " budget=", state.last_budget,
                 " denied=", state.last_denied, " reports=", state.reports,
                 '\n');
  }
  return out;
}

}  // namespace easis::wdg
