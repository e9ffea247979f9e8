// Reboot-storm / reset-policy experiment (robustness extension).
//
// A boot-persistent fault (heartbeat suppression that survives every
// reset, like a defective sensor or a flash-resident bug) hits the
// SafeSpeed application at t=5s. Every boot re-detects it and the FMF
// requests another ECU software reset; each reset costs a 250 ms reboot
// blackout in which the control loop is dark. Three policies:
//
//   naive     endless reset loop (storm detection disabled)
//   storm     reboot-storm detection: 3 resets within 10 s latch a
//             persistent limp-home safe state, further resets refused
//   recovery  storm + post-reset recovery validation: a warm-up window
//             after each boot detects the recurrence within one window
//             instead of waiting for the error thresholds to refill
//
// Availability = fraction of 10 ms slots with a completed SafeSpeed
// sensor execution over 60 s. Expected shape: naive burns a large share
// of the horizon in reboot blackouts; storm caps the resets at the limit
// and keeps the (limp-home) function up; recovery detects the recurring
// fault several times faster than the threshold path.
//
// Ported onto the campaign harness: the three policy runs (x --runs
// repetitions) shard across --jobs workers; each run contributes one CSV
// row, concatenated in run-index order so the CSV is byte-identical for
// any --jobs value.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <vector>

#include "harness/campaign_cli.hpp"
#include "harness/campaign_report.hpp"
#include "harness/campaign_runner.hpp"
#include "inject/faults.hpp"
#include "inject/injector.hpp"
#include "sim/engine.hpp"
#include "validator/central_node.hpp"

using namespace easis;

namespace {

constexpr std::uint32_t kStormLimit = 3;
constexpr std::uint32_t kWarmupCycles = 6;  // > SafeSpeed aliveness window
const sim::Duration kRebootDelay = sim::Duration::millis(250);

enum class Policy { kNaive, kStorm, kRecovery };
constexpr Policy kPolicies[] = {Policy::kNaive, Policy::kStorm,
                                Policy::kRecovery};

const char* name_of(Policy p) {
  switch (p) {
    case Policy::kNaive: return "naive";
    case Policy::kStorm: return "storm";
    case Policy::kRecovery: return "recovery";
  }
  return "?";
}

struct Outcome {
  std::uint32_t resets = 0;
  double availability = 0.0;
  bool limp_home = false;
  bool storm_latched = false;
  /// Post-boot detection latency of the recurring fault (ms), taken from
  /// the persisted reset-cause records; -1 when fewer than two resets.
  double detect_ms = -1.0;
};

Outcome run_policy(Policy policy) {
  sim::Engine engine;
  validator::CentralNodeConfig config;
  config.with_safelane = false;
  config.with_light_control = false;
  config.with_crash_detection = false;
  config.watchdog.ecu_faulty_task_limit = 1;
  config.reboot_delay = kRebootDelay;
  config.fmf.max_ecu_resets = 1'000'000;  // the storm logic is under test
  config.fmf.storm_reset_limit =
      policy == Policy::kNaive ? 1'000'000 : kStormLimit;
  config.fmf.storm_window = sim::Duration::seconds(10);
  if (policy == Policy::kRecovery) {
    config.fmf.recovery_warmup_cycles = kWarmupCycles;
  }
  validator::CentralNode node(engine, config);

  // ECU-level treatment only: the application fault must escalate to the
  // global ECU state, not be absorbed by an application restart.
  fmf::ApplicationPolicy app_policy;
  app_policy.on_faulty = fmf::TreatmentAction::kNone;
  node.fault_management()->set_application_policy(
      node.safespeed().application(), app_policy);

  inject::ErrorInjector injector(engine);
  injector.add(inject::make_recurring_post_reset_fault(
      node.rte(), node.safespeed().safe_cc_process(),
      sim::SimTime(5'000'000)));
  injector.arm();

  std::uint64_t slots = 0, live_slots = 0;
  std::uint64_t last_executions = 0;
  engine.every(sim::Duration::millis(10), [&] {
    ++slots;
    const auto executions =
        node.rte().executions(node.safespeed().get_sensor_value());
    if (executions > last_executions) ++live_slots;
    last_executions = executions;
  });

  node.start();
  engine.run_until(sim::SimTime(60'000'000));

  Outcome outcome;
  outcome.resets = node.resets_performed();
  outcome.availability =
      slots == 0 ? 0.0
                 : static_cast<double>(live_slots) / static_cast<double>(slots);
  outcome.limp_home = node.safespeed().limp_home();
  outcome.storm_latched = node.fault_management()->storm_latched();
  // Detection latency of the *second* reset: time between the end of the
  // first reboot blackout and the next reset decision.
  const auto& history = node.fault_management()->reset_history();
  if (history.size() >= 2) {
    const sim::SimTime booted = history[0].time + kRebootDelay;
    outcome.detect_ms =
        static_cast<double>((history[1].time - booted).as_micros()) / 1000.0;
  }
  return outcome;
}

std::vector<std::string> to_row(Policy policy, const Outcome& o) {
  std::ostringstream availability, detect;
  availability << o.availability;
  detect << o.detect_ms;
  return {name_of(policy),          std::to_string(o.resets),
          availability.str(),       o.limp_home ? "1" : "0",
          o.storm_latched ? "1" : "0", detect.str()};
}

}  // namespace

int main(int argc, char** argv) {
  harness::CampaignCli cli(
      "exp_reset_storm",
      "reboot-storm policy comparison (naive / storm / recovery)",
      /*default_seed=*/0, /*default_runs=*/1,
      "repetitions per reset policy", "exp_reset_storm.csv");
  if (!cli.parse(argc, argv)) return cli.exit_code();
  if (cli.runs == 0) cli.runs = 1;  // the shape check needs one run each

  // Policy-major run list: all naive runs, then storm, then recovery, so
  // the concatenated CSV rows keep the pre-harness order.
  const std::size_t total = 3 * static_cast<std::size_t>(cli.runs);
  std::vector<harness::RunSpec> specs =
      harness::CampaignRunner::make_specs(total, cli.seed);
  for (std::size_t i = 0; i < total; ++i) {
    specs[i].label = name_of(kPolicies[i / cli.runs]);
  }

  // The runs are deterministic; the side vector keeps the numeric
  // outcomes for the shape check (each slot written by exactly one run).
  std::vector<Outcome> outcomes(total);
  harness::CampaignRunner runner(
      cli.config(), [&](const harness::RunContext& ctx) {
        const std::size_t i = ctx.spec().run_index;
        const Policy policy = kPolicies[i / cli.runs];
        const Outcome o = run_policy(policy);
        outcomes[i] = o;
        harness::RunResult result;
        result.rows.push_back(to_row(policy, o));
        return result;
      });
  const harness::CampaignOutcome outcome = runner.run(specs);
  const harness::CampaignReport report(specs, outcome);

  std::cout << "=== Reboot-storm escalation and recovery validation ===\n"
            << "boot-persistent SafeSpeed fault at t=5s; every reset costs a\n"
            << "250 ms blackout; availability = share of 10 ms slots with a\n"
            << "completed SafeSpeed sensor execution over 60 s\n\n"
            << "policy     resets  availability  limp  storm  detect_ms\n";
  for (std::size_t p = 0; p < 3; ++p) {
    const Outcome& o = outcomes[p * cli.runs];
    std::printf("%-9s  %6u  %11.1f%%  %4s  %5s  %9.1f\n",
                name_of(kPolicies[p]), o.resets, o.availability * 100.0,
                o.limp_home ? "yes" : "no", o.storm_latched ? "yes" : "no",
                o.detect_ms);
  }
  if (!report.quarantined().empty()) {
    std::cout << '\n' << report.quarantine_summary();
  }

  {
    std::ofstream csv(cli.csv);
    report.write_rows_csv(
        csv, "policy,resets,availability,limp_home,storm_latched,detect_ms");
  }
  cli.write_artifacts(report, runner.config(), outcome, std::cout);

  const Outcome& naive = outcomes[0];
  const Outcome& storm = outcomes[1 * cli.runs];
  const Outcome& recovery = outcomes[2 * cli.runs];
  const double warmup_ms =
      static_cast<double>(kWarmupCycles) * 10.0;  // 10 ms check period
  const bool shape_ok =
      naive.resets > 20 && !naive.storm_latched &&
      storm.resets == kStormLimit && storm.storm_latched && storm.limp_home &&
      storm.availability > naive.availability + 0.2 &&
      recovery.storm_latched && recovery.limp_home &&
      recovery.availability > naive.availability + 0.2 &&
      recovery.detect_ms > 0.0 && recovery.detect_ms <= warmup_ms + 10.0 &&
      recovery.detect_ms < naive.detect_ms && report.quarantined().empty();
  std::cout << "\nraw results written to " << cli.csv << '\n'
            << "--- expected shape ---\n"
            << "naive resets forever and loses >20% availability to reboot\n"
            << "blackouts; storm caps resets at " << kStormLimit
            << " and parks the node in limp-home; recovery validation "
               "detects the recurrence\nwithin one warm-up window ("
            << warmup_ms << " ms) instead of the threshold path ("
            << naive.detect_ms << " ms)\n"
            << "shape check: " << (shape_ok ? "PASS" : "FAIL") << "\n";
  return shape_ok ? 0 : 1;
}
