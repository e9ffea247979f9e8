// Scalability ablation: cost of the Software Watchdog as the number of
// monitored runnables grows — both the service's own modelled CPU budget
// inside the simulated schedule and the host-side simulation throughput.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "os/kernel.hpp"
#include "rte/rte.hpp"
#include "sim/engine.hpp"
#include "wdg/service.hpp"
#include "wdg/watchdog.hpp"

using namespace easis;

namespace {

/// Builds a platform with `runnables` runnables spread over `tasks` tasks,
/// all watchdog-monitored, and simulates one second per iteration.
void BM_SimulatedSecondVsRunnables(benchmark::State& state) {
  const int runnable_count = static_cast<int>(state.range(0));
  const int task_count = std::max(1, runnable_count / 8);

  for (auto _ : state) {
    sim::Engine engine;
    os::Kernel kernel(engine);
    rte::Rte rte(kernel);
    wdg::WatchdogConfig config;
    wdg::SoftwareWatchdog watchdog(config);

    const CounterId counter = kernel.create_counter(
        {.name = "sys", .tick = sim::Duration::millis(1)});

    const ApplicationId app = rte.register_application("Synthetic");
    const ComponentId comp = rte.register_component(app, "C");
    std::vector<TaskId> tasks;
    std::vector<AlarmId> alarms;
    for (int t = 0; t < task_count; ++t) {
      os::TaskConfig tc;
      tc.name = std::string("t").append(std::to_string(t));
      tc.priority = t;
      tasks.push_back(kernel.create_task(tc));
      alarms.push_back(kernel.create_alarm(
          counter, os::AlarmActionActivateTask{tasks.back()}));
    }
    for (int i = 0; i < runnable_count; ++i) {
      rte::RunnableSpec spec;
      spec.name = std::string("r").append(std::to_string(i));
      spec.execution_time = sim::Duration::micros(20);
      const RunnableId id = rte.register_runnable(comp, spec);
      const TaskId task = tasks[static_cast<std::size_t>(i % task_count)];
      rte.map_runnable(id, task);
      wdg::RunnableMonitor m;
      m.runnable = id;
      m.task = task;
      m.application = app;
      m.name = spec.name;
      m.aliveness_cycles = 4;
      m.min_heartbeats = 1;
      m.arrival_cycles = 4;
      m.max_arrivals = 8;
      m.program_flow = false;
      watchdog.add_runnable(m);
    }

    wdg::WatchdogService service(kernel, rte, watchdog, counter);
    rte.finalize();
    kernel.start();
    service.arm();
    for (const AlarmId alarm : alarms) {
      kernel.set_rel_alarm(alarm, 10, 10);
    }

    engine.run_until(sim::SimTime(1'000'000));  // one simulated second
    benchmark::DoNotOptimize(watchdog.errors_reported());

    state.counters["monitored_runnables"] =
        static_cast<double>(runnable_count);
    state.counters["events_per_sim_s"] =
        static_cast<double>(engine.events_fired());
    // Modelled watchdog CPU share inside the simulated schedule.
    state.counters["wd_cpu_share_pct"] =
        100.0 * kernel.total_consumed(service.task()).as_seconds() / 1.0;
  }
}
BENCHMARK(BM_SimulatedSecondVsRunnables)
    ->Arg(8)
    ->Arg(32)
    ->Arg(128)
    ->Arg(512)
    ->Unit(benchmark::kMillisecond);

/// Pure engine throughput baseline: events dispatched per host second.
void BM_EngineEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine engine;
    int fired = 0;
    std::function<void()> chain = [&] {
      if (++fired < 100'000) {
        engine.schedule_in(sim::Duration::micros(10), chain);
      }
    };
    engine.schedule_at(sim::SimTime(0), chain);
    engine.run_all();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * 100'000);
}
BENCHMARK(BM_EngineEventThroughput)->Unit(benchmark::kMillisecond);

}  // namespace
