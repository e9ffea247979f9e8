#include "inject/resource_faults.hpp"

#include <utility>

namespace easis::inject {

Injection make_memory_leak(sim::Engine& engine, os::Kernel& kernel,
                           TaskId task, std::uint64_t bytes_per_period,
                           sim::Duration period, sim::SimTime start,
                           sim::Duration duration) {
  Injection inj;
  inj.name = "memory_leak(" + kernel.task_name(task) + ")";
  inj.start = start;
  inj.duration = duration;
  // A revert stops leaking; what already leaked stays allocated until a
  // restart reclaims the task's pool.
  repeat_while_applied(inj, engine, period, [&kernel, task, bytes_per_period] {
    kernel.task_alloc(task, bytes_per_period);
  });
  return inj;
}

Injection make_allocation_burst(os::Kernel& kernel, TaskId task,
                                std::uint64_t bytes, std::uint32_t count,
                                sim::SimTime start) {
  Injection inj;
  inj.name = "allocation_burst(" + kernel.task_name(task) + ")";
  inj.start = start;
  inj.apply = [&kernel, task, bytes, count] {
    for (std::uint32_t i = 0; i < count; ++i) kernel.task_alloc(task, bytes);
  };
  return inj;
}

Injection make_handle_exhaustion(sim::Engine& engine, os::Kernel& kernel,
                                 TaskId task,
                                 std::uint32_t handles_per_period,
                                 sim::Duration period, sim::SimTime start,
                                 sim::Duration duration) {
  Injection inj;
  inj.name = "handle_exhaustion(" + kernel.task_name(task) + ")";
  inj.start = start;
  inj.duration = duration;
  repeat_while_applied(inj, engine, period,
                       [&kernel, task, handles_per_period] {
                         kernel.task_acquire_handles(task, handles_per_period);
                       });
  return inj;
}

Injection make_queue_flood(sim::Engine& engine, rte::SignalBus& bus,
                           std::string signal,
                           std::uint32_t publishes_per_period,
                           sim::Duration period, sim::SimTime start,
                           sim::Duration duration) {
  Injection inj;
  inj.name = "queue_flood(" + signal + ")";
  inj.start = start;
  inj.duration = duration;
  repeat_while_applied(inj, engine, period,
                       [&engine, &bus, signal = std::move(signal),
                        publishes_per_period] {
                         for (std::uint32_t i = 0; i < publishes_per_period;
                              ++i) {
                           bus.publish(signal, static_cast<double>(i),
                                       engine.now());
                         }
                       });
  return inj;
}

Injection make_cpu_hog(rte::Rte& rte, RunnableId runnable, double factor,
                       sim::SimTime start, sim::Duration duration) {
  Injection inj;
  inj.name = "cpu_hog(" + rte.runnable_name(runnable) + ")";
  inj.start = start;
  inj.duration = duration;
  inj.apply = [&rte, runnable, factor] {
    rte.control(runnable).time_scale = factor;
  };
  inj.revert = [&rte, runnable] { rte.control(runnable).time_scale = 1.0; };
  return inj;
}

Injection make_creeping_load(sim::Engine& engine, rte::Rte& rte,
                             RunnableId runnable, double factor_step,
                             sim::Duration period, sim::SimTime start,
                             sim::Duration duration) {
  Injection inj;
  inj.name = "creeping_load(" + rte.runnable_name(runnable) + ")";
  inj.start = start;
  inj.duration = duration;
  inj.revert = [&rte, runnable] { rte.control(runnable).time_scale = 1.0; };
  repeat_while_applied(inj, engine, period, [&rte, runnable, factor_step] {
    rte.control(runnable).time_scale += factor_step;
  });
  return inj;
}

}  // namespace easis::inject
