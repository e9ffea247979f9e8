// Crash detection demo: the event-driven emergency path on the full node.
//
// The vehicle accelerates; at t=10 s a crash pulse arrives on the sensor
// ISR and the emergency notification fires. From t=15 s a faulty sensor
// line retriggers the interrupt continuously — the watchdog's arrival-rate
// monitoring flags the handler storm and the FMF records the DTC.
//
//   $ ./crash_demo
#include <cstdio>
#include <iostream>

#include "sim/engine.hpp"
#include "validator/central_node.hpp"

using namespace easis;

int main() {
  sim::Engine engine;
  validator::CentralNode node(engine);
  auto* crash = node.crash_detection();

  node.watchdog().add_error_listener([](const wdg::ErrorReport& report) {
    std::printf("[%8.1f ms] watchdog: %s error (runnable #%u)\n",
                report.time.as_millis(),
                std::string(wdg::to_string(report.type)).c_str(),
                report.runnable.value());
  });
  node.signals().add_observer([](const std::string& name, double value,
                                 sim::SimTime now) {
    if (name == "telematics.crash_notify") {
      std::printf("[%8.1f ms] telematics: crash notification #%d sent\n",
                  now.as_millis(), static_cast<int>(value));
    }
  });

  node.signals().publish("driver.demand", 0.8, engine.now());

  // Real crash pulse at 10 s.
  engine.schedule_at(sim::SimTime(10'000'000), [&] {
    node.signals().publish("sensor.accel_g", 7.2, engine.now());
    crash->trigger_sensor();
    std::puts("[10000.0 ms] crash pulse on the sensor line");
  });

  // Faulty sensor line from 15 s: retriggers every 5 ms for one second.
  for (int i = 0; i < 200; ++i) {
    engine.schedule_at(sim::SimTime(15'000'000 + i * 5'000), [&] {
      node.signals().publish("sensor.accel_g", 9.9, engine.now());
      crash->trigger_sensor();
    });
  }

  node.start();
  std::puts("simulating 20 s: crash at 10 s, sensor-line fault 15..16 s\n");
  engine.run_until(sim::SimTime(20'000'000));

  std::printf("\ncrashes detected: %u, notifications sent: %u\n",
              crash->crashes_detected(), crash->notifications_sent());
  std::printf("NotifyTelematics supervision: arrival-rate errors = %u\n",
              node.watchdog().tsi_unit().error_count(
                  crash->notify_telematics(), wdg::ErrorType::kArrivalRate));
  if (node.dtc_store() != nullptr) {
    std::puts("");
    node.dtc_store()->write(std::cout);
  }
  return 0;
}
