// SafeLane demo: lane departure warning with a program-flow fault.
//
// The vehicle drifts towards the lane marking; SafeLane warns, the driver
// corrects. Midway, an invalid execution branch is injected into the
// SafeLane task: the detection runnable is skipped, the watchdog's PFC unit
// reports the flow error, and the FMF restarts the application.
//
//   $ ./safelane_demo
#include <cstdio>

#include "inject/faults.hpp"
#include "inject/injector.hpp"
#include "sim/engine.hpp"
#include "validator/central_node.hpp"
#include "validator/scenario.hpp"

using namespace easis;

int main() {
  sim::Engine engine;
  validator::CentralNode node(engine);

  node.watchdog().add_error_listener([](const wdg::ErrorReport& report) {
    std::printf("[%8.1f ms] watchdog: %s error (runnable #%u)\n",
                report.time.as_millis(),
                std::string(wdg::to_string(report.type)).c_str(),
                report.runnable.value());
  });
  node.watchdog().add_task_state_listener(
      [&](TaskId task, wdg::Health health, sim::SimTime now) {
        std::printf("[%8.1f ms] task '%s' -> %s\n", now.as_millis(),
                    node.kernel().task_name(task).c_str(),
                    std::string(wdg::to_string(health)).c_str());
      });

  // Drift out at 0.3 m/s from t=1 s; correct once warned.
  validator::Scenario scenario(engine, node.signals());
  scenario.at(sim::SimTime(1'000'000),
              [&] { node.lane().set_drift_rate(0.3); });
  scenario.arm();
  node.signals().add_observer([&](const std::string& name, double value,
                                  sim::SimTime now) {
    if (name == "hmi.lane_warning" && value > 0.5) {
      static bool corrected = false;
      if (!corrected) {
        corrected = true;
        std::printf("[%8.1f ms] lane warning! driver corrects\n",
                    now.as_millis());
        node.lane().set_drift_rate(0.0);
        node.lane().set_correction_rate(0.4);
      }
    }
  });

  // Invalid branch in the SafeLane job from 10 s (transient, 1 s).
  auto* lane_app = node.safelane();
  inject::ErrorInjector injector(engine);
  injector.add(inject::make_invalid_branch(
      node.rte(), node.safelane_task(), lane_app->acquire_lane_position(),
      lane_app->warn_actuator(), sim::SimTime(10'000'000),
      sim::Duration::seconds(1)));
  injector.arm();

  node.start();
  std::puts("simulating 15 s: drift at 1 s, flow fault 10..11 s\n");
  engine.run_until(sim::SimTime(15'000'000));

  const wdg::TaskStateIndicationUnit& tsi = node.watchdog().tsi_unit();
  const RunnableId detect = lane_app->detect_departure();
  std::printf("\nDetectDeparture supervision report: flow=%u aliveness=%u "
              "accumulated=%u\n",
              tsi.error_count(detect, wdg::ErrorType::kProgramFlow),
              tsi.error_count(detect, wdg::ErrorType::kAliveness),
              tsi.error_count(detect, wdg::ErrorType::kAccumulatedAliveness));
  if (node.fault_management() != nullptr) {
    std::printf("FMF restarts of SafeLane: %u\n",
                node.fault_management()->restarts_performed(
                    lane_app->application()));
  }
  std::printf("final lateral offset: %.2f m, warning=%s\n",
              node.lane().lateral_offset_m(),
              lane_app->warning_active() ? "on" : "off");
  return 0;
}
