// Ablation: fault-hypothesis calibration (§3.2.1 "according to the fault
// hypothesis").
//
// Under a jittery schedule (a seeded random interference task preempts
// SafeSpeed), sweeps the aliveness hypothesis margin and measures
//   (a) false positives over a fault-free run, and
//   (b) detection of a real hang under the same hypothesis.
// Expected shape: with the default margin (tolerate one missing heartbeat
// per window) there are no false positives and the hang is still detected;
// a zero-margin hypothesis trades false positives for earlier detection.
#include <fstream>
#include <iostream>

#include "inject/faults.hpp"
#include "inject/injector.hpp"
#include "sim/engine.hpp"
#include "util/random.hpp"
#include "validator/central_node.hpp"

using namespace easis;

namespace {

struct Outcome {
  int false_positives = 0;   // fault-free phase errors
  int detections = 0;        // errors after the real fault
  double first_detect_ms = -1;
};

/// margin = how many heartbeats below the expected count per window are
/// tolerated (0 = hypothesis expects every single activation).
Outcome run_with_margin(std::uint32_t margin, std::uint64_t seed) {
  sim::Engine engine;
  validator::CentralNodeConfig config;
  config.with_fmf = false;
  validator::CentralNode node(engine, config);

  // Tighten/loosen the hypothesis: window 4 cycles = 40 ms = 4 activations.
  auto& ss = node.safespeed();
  for (RunnableId r :
       {ss.get_sensor_value(), ss.safe_cc_process(), ss.speed_process()}) {
    const std::uint32_t expected = 4;
    node.watchdog().update_hypothesis(
        r, /*aliveness_cycles=*/4,
        /*min_heartbeats=*/expected - std::min(margin, expected - 1),
        /*arrival_cycles=*/4, /*max_arrivals=*/expected + 1 + margin);
  }

  // Jitter source: a task above SafeSpeed with random job costs.
  util::Rng rng(seed);
  os::TaskConfig jitter_config;
  jitter_config.name = "jitter";
  jitter_config.priority = 60;  // above SafeSpeed (50), below watchdog
  jitter_config.max_pending_activations = 2;
  const TaskId jitter = node.kernel().create_task(jitter_config);
  node.kernel().set_job_factory(jitter, [&rng](os::Job& job) {
    job.emplace_back().cost =
        sim::Duration::micros(rng.uniform_int(500, 6'000));
  });
  const AlarmId jitter_alarm = node.kernel().create_alarm(
      node.system_counter(), os::AlarmActionActivateTask{jitter});

  const sim::SimTime fault_at(10'000'000);
  Outcome outcome;
  node.watchdog().add_error_listener([&](const wdg::ErrorReport& report) {
    if (report.type != wdg::ErrorType::kAliveness &&
        report.type != wdg::ErrorType::kArrivalRate) {
      return;
    }
    if (report.time < fault_at) {
      ++outcome.false_positives;
    } else {
      if (outcome.detections == 0) {
        outcome.first_detect_ms = (report.time - fault_at).as_millis();
      }
      ++outcome.detections;
    }
  });

  inject::ErrorInjector injector(engine);
  injector.add(inject::make_execution_stretch(
      node.rte(), ss.safe_cc_process(), 1e6, fault_at,
      sim::Duration::zero()));
  injector.arm();

  node.start();
  node.kernel().set_rel_alarm(jitter_alarm, 7, 7);  // co-prime with 10 ms
  engine.run_until(sim::SimTime(12'000'000));
  return outcome;
}

}  // namespace

int main() {
  std::cout << "=== Fault hypothesis calibration (ablation) ===\n"
            << "10 s fault-free with scheduling jitter, then a real hang;\n"
            << "margin = tolerated missing heartbeats per 40 ms window\n\n"
            << "margin  false_positives  hang_detected  first_detect_ms\n";
  std::ofstream csv("exp_threshold.csv");
  csv << "margin,false_positives,detections,first_detect_ms\n";

  bool shape_ok = true;
  for (const std::uint32_t margin : {0u, 1u, 2u, 3u}) {
    Outcome total;
    for (const std::uint64_t seed : {11ull, 22ull, 33ull}) {
      const Outcome o = run_with_margin(margin, seed);
      total.false_positives += o.false_positives;
      total.detections += o.detections;
      total.first_detect_ms = std::max(total.first_detect_ms,
                                       o.first_detect_ms);
    }
    std::printf("%6u  %15d  %13s  %15.1f\n", margin, total.false_positives,
                total.detections > 0 ? "yes" : "NO", total.first_detect_ms);
    csv << margin << ',' << total.false_positives << ',' << total.detections
        << ',' << total.first_detect_ms << '\n';
    // The hang must be detected at every margin; the default margin (1)
    // and looser must be silent during the fault-free phase.
    shape_ok = shape_ok && total.detections > 0;
    if (margin >= 1) shape_ok = shape_ok && total.false_positives == 0;
  }

  std::cout << "\nraw results written to exp_threshold.csv\n"
            << "--- expected shape ---\n"
            << "margin >= 1 eliminates jitter-induced false positives while "
               "the real hang remains fully detected\n"
            << "shape check: " << (shape_ok ? "PASS" : "FAIL") << "\n";
  return shape_ok ? 0 : 1;
}
