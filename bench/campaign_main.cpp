// The class x detector coverage campaigns: one driver, one family table.
//
// Every campaign here runs --runs randomized injections of each fault
// class of its family against a fresh world (campaign_scenarios.hpp) and
// records, per run, which detectors caught the fault. The family table
// below holds everything one campaign differs in: its name and CLI text,
// its defaults, its classes and run function, its per-run rows and its
// shape condition. CMake builds this one source once per family
// (EASIS_CAMPAIGN names the family), so each binary keeps its own name,
// flags and output files and has no family to choose at run time.
//
// Harness-ported: runs shard across --jobs workers, the per-run seed is
// derive_seed(--seed, run_index), and every CSV and telemetry export is
// byte-identical for any --jobs value (the *_jobs_determinism_* gates).
#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "campaign_scenarios.hpp"
#include "harness/campaign_cli.hpp"
#include "harness/campaign_report.hpp"
#include "harness/campaign_runner.hpp"

using namespace easis;

namespace {

/// Where a family's per-run rows go.
enum class Rows {
  kNone,     // coverage CSV only
  kMainCsv,  // the rows are the --csv file itself
  kBeside,   // <stem>.runs.csv beside the per-class coverage CSV
};

struct CampaignFamily {
  const char* program;
  const char* description;
  std::uint64_t default_seed;
  std::uint64_t default_runs;
  /// Report banner, and what follows the run count on its second line.
  const char* title;
  const char* banner_tail;
  const std::vector<std::string>& (*classes)();
  harness::RunResult (*run)(const harness::RunContext&);
  Rows rows;
  /// Header of the per-run rows; nullptr with Rows::kNone.
  const std::string& (*rows_header)();
  const char* expected_shape;
  /// The coverage bounds of a full sweep; may print extra evidence.
  bool (*shape)(const harness::CampaignReport&, std::ostream&);
};

/// Every fault class caught by every listed detector in every run.
bool all_caught(const harness::CampaignReport& report,
                const std::vector<std::string>& classes,
                const std::vector<std::string>& detectors) {
  bool ok = true;
  for (const auto& fault_class : classes) {
    for (const auto& detector : detectors) {
      ok &= report.coverage().coverage(fault_class, detector) > 0.99;
    }
  }
  return ok;
}

// Network: each fault class must be caught by the layer designed for it,
// and the blind spots must stay blind.
bool network_shape(const harness::CampaignReport& report, std::ostream&) {
  const auto& table = report.coverage();
  bool ok = true;
  // Corruption: every damaged frame fails the CRC; the CMU relays it.
  ok &= table.coverage("frame_corruption", "e2e_check") > 0.99;
  ok &= table.coverage("frame_corruption", "cmu_report") > 0.99;
  // A burst leaves a counter gap the next frame exposes -- except when
  // the gap aliases: with a mod-15 alive counter, a burst that swallows
  // exactly 15 command frames lands back on delta == 1 and sails through
  // the sequence check. That blind spot is why the E2E counter is never
  // deployed without timeout monitoring: the CMU must cover the residue.
  ok &= table.coverage("loss_burst", "e2e_check") >= 0.75;
  ok &= table.coverage("loss_burst", "e2e_check") <= 0.99;
  ok &= table.coverage("loss_burst", "cmu_report") > 0.99;
  // Starvation and partition silence the channel and the heartbeats.
  ok &= table.coverage("babbling_idiot", "node_supervisor") > 0.99;
  ok &= table.coverage("babbling_idiot", "cmu_report") > 0.99;
  ok &= table.coverage("network_partition", "signal_qualifier") > 0.99;
  ok &= table.coverage("network_partition", "node_supervisor") > 0.99;
  // The gateway stall never touches the CAN itself: invisible to the
  // bus-level supervisor and the CRC, yet the application's qualifier
  // still degrades.
  ok &= table.coverage("gateway_stall", "node_supervisor") == 0.0;
  ok &= table.coverage("gateway_stall", "e2e_check") == 0.0;
  ok &= table.coverage("gateway_stall", "signal_qualifier") > 0.99;
  return ok;
}

// Environment: every class caught end to end, and every runaway run
// walks the whole graceful ladder observably.
bool environment_shape(const harness::CampaignReport& report,
                       std::ostream& out) {
  bool ladder_walked = false;
  for (const auto& row : report.rows()) {
    if (row.size() > 4 && row[0] == "thermal_runaway") {
      ladder_walked |= row[4] == "normal>warn>derate>shutdown";
    }
  }
  out << "ladder trace: "
      << (ladder_walked ? "full ladder observed" : "MISSING") << '\n';
  return all_caught(report, bench::environment_fault_classes(),
                    bench::kEnvironmentDetectors) &&
         ladder_walked;
}

constexpr CampaignFamily kFamilies[] = {
    // Communication faults against the E2E-protected vehicle network,
    // seen by the four layers of the protected chain: the receiver's E2E
    // verdict, the CMU's reports, SafeSpeed's signal qualifier and the
    // bus-level heartbeat supervision of a remote node.
    {"exp_network_coverage",
     "randomized network fault injection campaign (5 fault classes x "
     "--runs injections, 4 detectors each)",
     0xC0FFEE, 42, "Network fault detection coverage", "4 detectors each\n",
     bench::network_fault_classes,
     [](const harness::RunContext& ctx) {
       return bench::run_network_fault(ctx.spec().label, ctx.spec().seed);
     },
     Rows::kNone, nullptr,
     "per-frame faults -> E2E check; silence faults -> timeout layers; "
     "gateway faults invisible on the bus",
     network_shape},
    // A full UDS-lite workshop readout after each injection: computation
    // faults must read out as their own DTC, diag-layer attacks must
    // degrade into an explicit NRC or tester timeout, never into a
    // wrong-but-plausible readout.
    {"exp_diag_readout",
     "post-run diagnostic readout campaign (6 fault classes x --runs "
     "injections, verdict per run)",
     0xD1A6, 25, "Diagnostic readout accuracy",
     "one full readout each\n\ndiagnosis accuracy per fault class "
     "(readout verdict == expected verdict):",
     bench::diag_fault_classes,
     [](const harness::RunContext& ctx) {
       return bench::run_diag_readout(ctx.spec().label, ctx.spec().seed);
     },
     Rows::kMainCsv, bench::diag_readout_csv_header,
     "computation faults -> correct DTC in the readout; diag-layer faults "
     "-> explicit NRC or tester timeout",
     [](const harness::CampaignReport& report, std::ostream&) {
       return all_caught(report, bench::diag_fault_classes(),
                         bench::kDiagDetectors);
     }},
    // Creeping resource exhaustion (leaks, descriptors, queue floods, CPU
    // load) through the whole chain: RSU report, task rolled to faulty,
    // FMF treatment (restart with pool reclaim, or load shedding), DTC.
    {"exp_resource_coverage",
     "resource-exhaustion fault injection campaign (6 fault classes x "
     "--runs injections, 4 detectors each)",
     0x5E50, 25, "Resource-exhaustion detection coverage",
     "4 detectors each\n", bench::resource_fault_classes,
     [](const harness::RunContext& ctx) {
       return bench::run_resource_fault(ctx.spec().label, ctx.spec().seed,
                                        &ctx);
     },
     Rows::kBeside, bench::resource_fault_csv_header,
     "every class detected by the RSU and readable as a DTC; "
     "memory/handle/queue faults end in a restart, CPU faults in load "
     "shedding",
     [](const harness::CampaignReport& report, std::ostream&) {
       return all_caught(report, bench::resource_fault_classes(),
                         bench::kResourceDetectors);
     }},
    // Thermal, sensor, NVM and process-deadline faults: ESU/PSU report,
    // DTC in fault memory, the class's treatment, DTC read back.
    {"exp_environment_coverage",
     "environmental fault injection campaign (8 fault classes x --runs "
     "injections, 4 detectors each)",
     0xE541, 25, "Environmental detection coverage", "4 detectors each\n",
     bench::environment_fault_classes,
     [](const harness::RunContext& ctx) {
       return bench::run_environment_fault(ctx.spec().label,
                                           ctx.spec().seed, &ctx);
     },
     Rows::kBeside, bench::environment_fault_csv_header,
     "every class detected end-to-end; the runaway class steps warn -> "
     "derate -> shutdown into the persistent safe state",
     environment_shape},
    // Mode-aware faults on a duty-cycled sensor node: mode unit report,
    // DTC, treatment, DTC plus power-mode DIDs read back. A false alarm
    // during legitimate duty cycling fails the run's verdict, which
    // quarantines it.
    {"exp_mode_coverage",
     "mode-aware fault injection campaign on a duty-cycled sensor node "
     "(6 fault classes x --runs injections, 4 detectors each)",
     0x30DE, 25, "Power-mode detection coverage", "4 detectors each\n",
     bench::mode_fault_classes,
     [](const harness::RunContext& ctx) {
       return bench::run_mode_fault(ctx.spec().label, ctx.spec().seed,
                                    &ctx);
     },
     Rows::kBeside, bench::mode_fault_csv_header,
     "every mode-aware class detected by the mode supervision unit and "
     "readable as a DTC, with zero false alarms during contractual "
     "deep-sleep silence",
     [](const harness::CampaignReport& report, std::ostream&) {
       return all_caught(report, bench::mode_fault_classes(),
                         bench::kModeDetectors);
     }},
};

constexpr const CampaignFamily& family_named(std::string_view program) {
  for (const CampaignFamily& family : kFamilies) {
    if (program == family.program) return family;
  }
  throw "EASIS_CAMPAIGN names no campaign family";
}

constexpr const CampaignFamily& kFamily = family_named(EASIS_CAMPAIGN);

#ifdef EASIS_QUARANTINE_PROBE
// Test build of the driver for the shape_rejects_fail_fast_* gates: the
// first run blocks until the hang supervisor cancels it, so the quarantine
// those gates assert happens however fast the other runs are.
harness::RunResult run_first_until_cancelled(const harness::RunContext& ctx) {
  if (ctx.spec().run_index != 0) return kFamily.run(ctx);
  while (!ctx.cancelled()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return {};
}
constexpr auto kRun = run_first_until_cancelled;
#else
constexpr auto kRun = kFamily.run;
#endif

}  // namespace

int main(int argc, char** argv) {
  harness::CampaignCli cli(kFamily.program, kFamily.description,
                           kFamily.default_seed, kFamily.default_runs,
                           "randomized injections per fault class",
                           std::string(kFamily.program) + ".csv");
  if (!cli.parse(argc, argv)) return cli.exit_code();

  const auto& classes = kFamily.classes();
  const auto runs_per_class = static_cast<std::size_t>(cli.runs);
  const std::size_t total = classes.size() * runs_per_class;
  std::vector<harness::RunSpec> specs =
      harness::CampaignRunner::make_specs(total, cli.seed);
  for (std::size_t i = 0; i < total; ++i) {
    specs[i].label = classes[i / runs_per_class];
  }

  harness::CampaignRunner runner(cli.config(), kRun);
  const harness::CampaignOutcome outcome = runner.run(specs);
  const harness::CampaignReport report(specs, outcome);

  std::cout << "=== " << kFamily.title << " ===\n"
            << report.completed_runs() << " randomized injections ("
            << cli.jobs << " worker(s), seed 0x" << std::hex << cli.seed
            << std::dec << "), " << kFamily.banner_tail << '\n';
  report.coverage().print(std::cout);
  if (!report.quarantined().empty()) {
    std::cout << '\n' << report.quarantine_summary();
  }
  if (outcome.skipped > 0) {
    std::cout << '\n'
              << outcome.skipped << " run(s) skipped by --fail-fast\n";
  }

  {
    std::ofstream csv(cli.csv);
    if (kFamily.rows == Rows::kMainCsv) {
      report.write_rows_csv(csv, kFamily.rows_header());
    } else {
      report.write_coverage_csv(csv);
    }
  }
  std::cout << '\n'
            << (kFamily.rows == Rows::kMainCsv ? "per-run verdicts"
                                               : "per-class coverage")
            << " written to " << cli.csv << '\n';
  if (kFamily.rows == Rows::kBeside) {
    const std::string rows_path = cli.stem() + ".runs.csv";
    std::ofstream rows(rows_path);
    report.write_rows_csv(rows, kFamily.rows_header());
    std::cout << "per-run verdicts written to " << rows_path << '\n';
  }
  cli.write_artifacts(report, runner.config(), outcome, std::cout);

  // Runs are skipped only after a failed verdict (--fail-fast). The
  // coverage of such a partial sweep is not the campaign's, so its bounds
  // are not checked; a quarantined run still fails the check.
  bool shape_ok = report.quarantined().empty();
  std::cout << "--- expected vs measured ---\n";
  if (outcome.skipped == 0) {
    std::cout << "expected shape: " << kFamily.expected_shape << '\n';
    shape_ok &= kFamily.shape(report, std::cout);
  } else {
    std::cout << "coverage bounds skipped (--fail-fast partial sweep)\n";
  }
  std::cout << "shape check: " << (shape_ok ? "PASS" : "FAIL") << "\n";
  return shape_ok ? 0 : 1;
}
