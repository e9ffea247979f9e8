// Outlook experiment: fault detection coverage analysis.
//
// The paper defers "further analysis of fault detection coverage" to
// future work; this bench runs it: a campaign of fault classes x injection
// targets, detected in parallel by the Software Watchdog and the three
// related-work baselines (ECU hardware watchdog, OSEKTime-style deadline
// monitoring, AUTOSAR-style execution time monitoring).
//
// Expected shape: the software watchdog covers runnable-level faults
// (hang, drop, excessive dispatch, flow corruption) that the task- and
// ECU-level baselines miss; the hardware watchdog only fires when the
// whole ECU stops scheduling background work.
//
// Ported onto the campaign harness: the 18 injections shard across --jobs
// workers and --runs repeats the whole campaign for statistical weight.
// The injections are deterministic (no RNG), so the result CSV is
// byte-identical to the pre-harness serial bench at default flags.
#include <algorithm>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "baseline/deadline_monitor.hpp"
#include "baseline/exec_time_monitor.hpp"
#include "baseline/hw_watchdog.hpp"
#include "harness/campaign_cli.hpp"
#include "harness/campaign_report.hpp"
#include "harness/campaign_runner.hpp"
#include "inject/campaign.hpp"
#include "inject/faults.hpp"
#include "inject/injector.hpp"
#include "sim/engine.hpp"
#include "validator/central_node.hpp"

using namespace easis;

namespace {

struct FaultSpec {
  std::string fault_class;
  // target selects which SafeSpeed runnable (0..2) is attacked.
  std::function<inject::Injection(validator::CentralNode&, int target,
                                  sim::SimTime at)>
      make;
  int targets = 3;
};

harness::RunResult run_one(const FaultSpec& spec, int target) {
  sim::Engine engine;
  validator::CentralNodeConfig config;
  config.with_fmf = false;
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
  // Budget: nominal job consumes ~0.7 ms; allow 3x headroom.
  exec.set_budget(node.safespeed_task(), sim::Duration::micros(2100));
  exec.set_violation_callback([&](TaskId, sim::SimTime t) {
    recorder.record("exec_time_monitor", t);
  });

  const sim::SimTime inject_at(2'000'000);
  inject::ErrorInjector injector(engine);
  injector.add(spec.make(node, target, inject_at));
  injector.arm();
  recorder.mark_injection(inject_at);

  node.start();
  hw_service.arm();
  hw.start();
  engine.run_until(sim::SimTime(12'000'000));

  harness::RunResult result;
  result.coverage.add_run(spec.fault_class, recorder);
  if (std::ranges::none_of(recorder.detectors(), [&](const auto& detector) {
        return recorder.detected(detector);
      })) {
    // A completely invisible injection is the anomaly the flight recorder
    // exists for; flag it so the harness dumps this run's events.
    result.misdetect = "no detector fired for " + spec.fault_class;
  }
  return result;
}

RunnableId target_runnable(validator::CentralNode& node, int target) {
  switch (target % 3) {
    case 0: return node.safespeed().get_sensor_value();
    case 1: return node.safespeed().safe_cc_process();
    default: return node.safespeed().speed_process();
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<FaultSpec> specs = {
      {"runnable_hang",
       [](validator::CentralNode& node, int target, sim::SimTime at) {
         return inject::make_execution_stretch(
             node.rte(), target_runnable(node, target), 1e6, at,
             sim::Duration::zero());
       }},
      {"runnable_slowdown_x5",
       [](validator::CentralNode& node, int target, sim::SimTime at) {
         return inject::make_execution_stretch(
             node.rte(), target_runnable(node, target), 5.0, at,
             sim::Duration::zero());
       }},
      {"runnable_drop",
       [](validator::CentralNode& node, int target, sim::SimTime at) {
         return inject::make_runnable_drop(
             node.rte(), target_runnable(node, target), at,
             sim::Duration::zero());
       }},
      {"heartbeat_loss",
       [](validator::CentralNode& node, int target, sim::SimTime at) {
         return inject::make_heartbeat_suppression(
             node.rte(), target_runnable(node, target), at,
             sim::Duration::zero());
       }},
      {"excessive_dispatch",
       [](validator::CentralNode& node, int, sim::SimTime at) {
         return inject::make_period_scale(
             node.kernel(), node.safespeed_alarm(),
             node.safespeed_period_ticks(), 0.2, at, sim::Duration::zero());
       },
       1},
      {"activation_loss",
       [](validator::CentralNode& node, int, sim::SimTime at) {
         return inject::make_period_scale(
             node.kernel(), node.safespeed_alarm(),
             node.safespeed_period_ticks(), 20.0, at, sim::Duration::zero());
       },
       1},
      {"invalid_branch",
       [](validator::CentralNode& node, int target, sim::SimTime at) {
         const RunnableId from = target_runnable(node, target);
         const RunnableId wrong = target_runnable(node, target + 2);
         return inject::make_invalid_branch(node.rte(),
                                            node.safespeed_task(), from,
                                            wrong, at, sim::Duration::zero());
       }},
      {"task_hang",
       [](validator::CentralNode& node, int, sim::SimTime at) {
         return inject::make_task_hang(node.rte(), node.safespeed_task(), at,
                                       sim::Duration::zero());
       },
       1},
  };

  harness::CampaignCli cli(
      "exp_coverage",
      "deterministic computation-fault coverage campaign (8 fault classes "
      "x their injection targets, 4 detectors each)",
      /*default_seed=*/0, /*default_runs=*/1,
      "repetitions of the whole 18-injection campaign", "exp_coverage.csv");
  if (!cli.parse(argc, argv)) return cli.exit_code();

  // Flatten (fault class x target) into the run list, repeated --runs
  // times. The runs are deterministic, so the derived seeds are unused —
  // but the indexing still fixes the reduction order.
  std::vector<std::pair<std::size_t, int>> flat;
  for (std::uint64_t rep = 0; rep < cli.runs; ++rep) {
    for (std::size_t s = 0; s < specs.size(); ++s) {
      for (int target = 0; target < specs[s].targets; ++target) {
        flat.emplace_back(s, target);
      }
    }
  }
  std::vector<harness::RunSpec> run_specs =
      harness::CampaignRunner::make_specs(flat.size(), cli.seed);
  for (std::size_t i = 0; i < flat.size(); ++i) {
    run_specs[i].label = specs[flat[i].first].fault_class;
  }

  harness::CampaignRunner runner(
      cli.config(), [&](const harness::RunContext& ctx) {
        const auto& [spec_idx, target] = flat[ctx.spec().run_index];
        return run_one(specs[spec_idx], target);
      });
  const harness::CampaignOutcome outcome = runner.run(run_specs);
  const harness::CampaignReport report(run_specs, outcome);
  const auto& table = report.coverage();

  std::cout << "=== Fault detection coverage (paper outlook) ===\n"
            << report.completed_runs() << " experiments (" << cli.jobs
            << " worker(s)), 4 detectors each\n\n";
  table.print(std::cout);
  if (!report.quarantined().empty()) {
    std::cout << '\n' << report.quarantine_summary();
  }

  {
    std::ofstream csv(cli.csv);
    report.write_coverage_csv(csv);
  }
  std::cout << "\nraw results written to " << cli.csv << '\n';
  cli.write_artifacts(report, runner.config(), outcome, std::cout);

  // Shape check: the software watchdog must dominate the baselines on
  // runnable-level faults and never miss a fault class entirely.
  bool shape_ok = true;
  for (const auto& fc :
       {"runnable_hang", "runnable_drop", "heartbeat_loss",
        "invalid_branch"}) {
    shape_ok = shape_ok && table.coverage(fc, "software_watchdog") > 0.99;
    shape_ok =
        shape_ok && table.coverage(fc, "hw_watchdog") <
                        table.coverage(fc, "software_watchdog") + 0.01;
  }
  // Pure heartbeat-path loss and runnable drop are invisible to every
  // task-level baseline (timing stays intact).
  shape_ok =
      shape_ok && table.coverage("runnable_drop", "deadline_monitor") == 0.0;
  shape_ok = shape_ok &&
             table.coverage("heartbeat_loss", "exec_time_monitor") == 0.0;
  // Deadline supervision (extension) catches rate-preserving slowdowns of
  // the runnables between its checkpoints (2 of 3 injection targets).
  shape_ok = shape_ok &&
             table.coverage("runnable_slowdown_x5", "software_watchdog") >=
                 0.6;
  shape_ok = shape_ok && report.quarantined().empty();
  std::cout << "--- paper vs measured ---\n"
            << "expected shape: software watchdog covers runnable-level "
               "faults the ECU/task-level monitors miss\n"
            << "shape check: " << (shape_ok ? "PASS" : "FAIL") << "\n";
  return shape_ok ? 0 : 1;
}
