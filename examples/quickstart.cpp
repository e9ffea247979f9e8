// Quickstart: the Software Watchdog on a minimal three-runnable system.
//
// Builds an OSEK kernel + RTE from scratch (no validator assembly), wires
// the watchdog service, injects a runnable hang, and prints the detection.
//
//   $ ./quickstart
#include <cstdio>

#include "inject/faults.hpp"
#include "inject/injector.hpp"
#include "os/kernel.hpp"
#include "rte/rte.hpp"
#include "sim/engine.hpp"
#include "wdg/service.hpp"
#include "wdg/watchdog.hpp"

using namespace easis;

int main() {
  sim::Engine engine;
  os::Kernel kernel(engine);
  rte::Rte rte(kernel);

  // --- application model: one component, three runnables in sequence -----
  const ApplicationId app = rte.register_application("Demo");
  const ComponentId comp = rte.register_component(app, "Pipeline");
  auto make = [&](const char* name) {
    rte::RunnableSpec spec;
    spec.name = name;
    spec.execution_time = sim::Duration::micros(200);
    spec.body = [] { /* application work would happen here */ };
    return rte.register_runnable(comp, spec);
  };
  const RunnableId read = make("Read");
  const RunnableId compute = make("Compute");
  const RunnableId act = make("Act");

  // --- map onto a periodic 10 ms task -------------------------------------
  os::TaskConfig task_config;
  task_config.name = "Task_Pipeline";
  task_config.priority = 10;
  const TaskId task = kernel.create_task(task_config);
  rte.map_runnable(read, task);
  rte.map_runnable(compute, task);
  rte.map_runnable(act, task);

  const CounterId counter = kernel.create_counter(
      {.name = "SystemTimer", .tick = sim::Duration::millis(1)});
  const AlarmId alarm =
      kernel.create_alarm(counter, os::AlarmActionActivateTask{task});

  // --- Software Watchdog: fault hypothesis + flow table --------------------
  wdg::WatchdogConfig wd_config;
  wd_config.check_period = sim::Duration::millis(10);
  wdg::SoftwareWatchdog watchdog(wd_config);
  for (RunnableId r : {read, compute, act}) {
    wdg::RunnableMonitor m;
    m.runnable = r;
    m.task = task;
    m.application = app;
    m.name = rte.runnable_name(r);
    m.aliveness_cycles = 4;   // 40 ms window
    m.min_heartbeats = 3;     // expect ~4 activations, tolerate one missing
    m.arrival_cycles = 4;
    m.max_arrivals = 5;
    watchdog.add_runnable(m);
  }
  watchdog.add_flow_entry_point(read);
  watchdog.add_flow_edge(read, compute);
  watchdog.add_flow_edge(compute, act);
  watchdog.add_flow_edge(act, read);

  watchdog.add_error_listener([&](const wdg::ErrorReport& report) {
    std::printf("[%8.1f ms] %s error on runnable '%s'\n",
                report.time.as_millis(),
                std::string(wdg::to_string(report.type)).c_str(),
                rte.runnable_name(report.runnable).c_str());
  });
  watchdog.add_task_state_listener(
      [&](TaskId, wdg::Health health, sim::SimTime now) {
        std::printf("[%8.1f ms] task state -> %s\n", now.as_millis(),
                    std::string(wdg::to_string(health)).c_str());
      });

  wdg::WatchdogService service(kernel, rte, watchdog, counter);
  rte.finalize();

  // --- inject a hang of 'Compute' between 300 ms and 600 ms ----------------
  inject::ErrorInjector injector(engine);
  injector.add(inject::make_execution_stretch(
      rte, compute, 1e6, sim::SimTime(300'000), sim::Duration::millis(300)));
  injector.arm();

  // --- run ------------------------------------------------------------------
  kernel.start();
  service.arm();
  kernel.set_rel_alarm(alarm, 10, 10);
  std::puts("running 1 s of simulated time; hang injected at 300 ms...");
  engine.run_until(sim::SimTime(1'000'000));

  const wdg::TaskStateIndicationUnit& tsi = watchdog.tsi_unit();
  const std::uint32_t aliveness =
      tsi.error_count(compute, wdg::ErrorType::kAliveness);
  std::printf(
      "\nsupervision report for 'Compute': aliveness=%u arrival=%u flow=%u\n",
      aliveness, tsi.error_count(compute, wdg::ErrorType::kArrivalRate),
      tsi.error_count(compute, wdg::ErrorType::kProgramFlow));
  std::printf("executions: Read=%llu Compute=%llu Act=%llu\n",
              static_cast<unsigned long long>(rte.executions(read)),
              static_cast<unsigned long long>(rte.executions(compute)),
              static_cast<unsigned long long>(rte.executions(act)));
  return aliveness > 0 ? 0 : 1;
}
