// Fault-injection campaign example: coverage of the Software Watchdog vs
// the baseline monitors (hardware watchdog, deadline monitor, execution-
// time monitor) across fault classes — the paper's outlook experiment in
// example form. See bench/exp_coverage for the full sweep.
//
//   $ ./fault_campaign
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "baseline/deadline_monitor.hpp"
#include "baseline/exec_time_monitor.hpp"
#include "baseline/hw_watchdog.hpp"
#include "inject/campaign.hpp"
#include "inject/faults.hpp"
#include "inject/injector.hpp"
#include "sim/engine.hpp"
#include "validator/central_node.hpp"

using namespace easis;

namespace {

struct Experiment {
  std::string fault_class;
  std::function<inject::Injection(validator::CentralNode&)> make;
};

void run_experiment(const Experiment& experiment,
                    inject::CoverageTable& table) {
  sim::Engine engine;
  validator::CentralNodeConfig config;
  config.with_fmf = false;  // raw detection comparison
  validator::CentralNode node(engine, config);

  inject::DetectionRecorder recorder({"software_watchdog", "hw_watchdog",
                                      "deadline_monitor",
                                      "exec_time_monitor"});

  node.watchdog().add_error_listener([&](const wdg::ErrorReport& r) {
    recorder.record("software_watchdog", r.time);
  });

  baseline::HardwareWatchdog hw(engine, sim::Duration::millis(100));
  hw.set_expire_callback(
      [&](sim::SimTime t) { recorder.record("hw_watchdog", t); });
  baseline::HardwareWatchdogService hw_service(
      node.kernel(), hw, node.system_counter(), /*priority=*/1,
      /*period_ticks=*/50);

  baseline::DeadlineMonitor deadline(node.kernel());
  deadline.set_deadline(node.safespeed_task(), sim::Duration::millis(10));
  deadline.set_violation_callback(
      [&](TaskId, sim::SimTime t) { recorder.record("deadline_monitor", t); });

  baseline::ExecutionTimeMonitor exec(node.kernel());
  exec.set_budget(node.safespeed_task(), sim::Duration::millis(2));
  exec.set_violation_callback([&](TaskId, sim::SimTime t) {
    recorder.record("exec_time_monitor", t);
  });

  const sim::SimTime inject_at(2'000'000);
  inject::ErrorInjector injector(engine);
  injector.add(experiment.make(node));
  injector.arm();
  recorder.mark_injection(inject_at);

  node.start();
  hw_service.arm();
  hw.start();
  engine.run_until(sim::SimTime(10'000'000));

  table.add_run(experiment.fault_class, recorder);
}

}  // namespace

int main() {
  const sim::SimTime at(2'000'000);
  const std::vector<Experiment> experiments = {
      {"runnable_hang",
       [&](validator::CentralNode& node) {
         return inject::make_execution_stretch(
             node.rte(), node.safespeed().safe_cc_process(), 1e6, at,
             sim::Duration::zero());
       }},
      {"runnable_drop",
       [&](validator::CentralNode& node) {
         return inject::make_runnable_drop(
             node.rte(), node.safespeed().safe_cc_process(), at,
             sim::Duration::zero());
       }},
      {"excessive_dispatch",
       [&](validator::CentralNode& node) {
         return inject::make_period_scale(
             node.kernel(), node.safespeed_alarm(),
             node.safespeed_period_ticks(), 0.2, at, sim::Duration::zero());
       }},
      {"invalid_branch",
       [&](validator::CentralNode& node) {
         return inject::make_invalid_branch(
             node.rte(), node.safespeed_task(),
             node.safespeed().get_sensor_value(),
             node.safespeed().speed_process(), at, sim::Duration::zero());
       }},
      {"task_hang",
       [&](validator::CentralNode& node) {
         return inject::make_task_hang(node.rte(), node.safespeed_task(), at,
                                       sim::Duration::zero());
       }},
  };

  inject::CoverageTable table;
  for (const auto& experiment : experiments) {
    std::cout << "running: " << experiment.fault_class << "\n";
    run_experiment(experiment, table);
  }
  std::cout << "\nDetection coverage (detected/total, mean latency):\n\n";
  table.print(std::cout);
  return 0;
}
