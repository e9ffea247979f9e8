// Policy-sweep campaign: ranking dependability policies.
//
// The policy engine makes the dependability configuration data; this bench
// makes it an experiment axis. A PolicyCatalog generates --policies
// deterministic variants (the built-in baseline, a hand-laid grid over
// thresholds / escalation / treatment, and seeded random perturbations),
// every variant is round-tripped through the declarative text format (the
// compiler is in the loop — a variant the compiler rejects is a bench
// bug), and each policy runs the same small fault matrix:
//
//   no_fault         false-alarm probe: a clean run must stay quiet
//   runnable_hang    computation stops inside a runnable
//   heartbeat_loss   computation continues, aliveness reporting stops
//   invalid_branch   control flow takes an impossible edge
//   task_hang        the whole OS task stops being scheduled
//
// Per (policy x fault) cell the run records detection, detection latency,
// false alarms, ECU resets and service availability (fraction of 10 ms
// probes with the node neither rebooting nor parked in the safe state).
// The reduction folds the cells into one ranked table: coverage over the
// faulty classes, mean detection latency, mean availability, false-alarm
// rate, and a composite score sorted best-first. Both the ranking CSV
// (--csv) and the per-run CSV beside it (its ".csv" replaced by
// ".runs.csv") are byte-identical across --jobs.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "harness/campaign_cli.hpp"
#include "harness/campaign_report.hpp"
#include "harness/campaign_runner.hpp"
#include "inject/faults.hpp"
#include "inject/injector.hpp"
#include "policy/catalog.hpp"
#include "policy/compiler.hpp"
#include "policy/policy.hpp"
#include "sim/engine.hpp"
#include "util/random.hpp"
#include "validator/central_node.hpp"
#include "validator/policy_binding.hpp"

using namespace easis;

namespace {

const std::vector<std::string>& fault_classes() {
  static const std::vector<std::string> classes = {
      "no_fault", "runnable_hang", "heartbeat_loss", "invalid_branch",
      "task_hang"};
  return classes;
}

/// Fixed-precision decimal rendering: CSV cells must not depend on any
/// locale or default-format heuristics.
std::string fmt(double v, int precision = 6) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", precision, v);
  return buffer;
}

RunnableId target_runnable(validator::CentralNode& node, int target) {
  switch (target % 3) {
    case 0: return node.safespeed().get_sensor_value();
    case 1: return node.safespeed().safe_cc_process();
    default: return node.safespeed().speed_process();
  }
}

harness::RunResult run_one(std::shared_ptr<const policy::PolicySet> pol,
                           const std::string& fault_class,
                           std::uint64_t seed) {
  sim::Engine engine;
  validator::CentralNodeConfig config;
  // A reset costs real dark time, so the availability column separates
  // restart-happy policies from conservative ones.
  config.reboot_delay = sim::Duration::millis(50);
  validator::apply_policy(config, pol);
  validator::CentralNode node(engine, config);
  node.attach_check_supervision();

  const sim::SimTime inject_at(2'000'000);
  const sim::SimTime run_until(8'000'000);

  // Detection bookkeeping straight off the watchdog's error stream. Any
  // report before the injection (or at all in a no_fault run) is a false
  // alarm — the price of an over-tight policy.
  bool detected = false;
  sim::SimTime first_detection;
  std::uint64_t false_alarms = 0;
  const bool faulty = fault_class != "no_fault";
  node.watchdog().add_error_listener([&](const wdg::ErrorReport& report) {
    if (faulty && report.time >= inject_at) {
      if (!detected) {
        detected = true;
        first_detection = report.time;
      }
    } else {
      ++false_alarms;
    }
  });

  util::Rng rng(seed);
  const int target = static_cast<int>(rng.uniform_int(0, 2));
  inject::ErrorInjector injector(engine);
  if (fault_class == "runnable_hang") {
    injector.add(inject::make_execution_stretch(
        node.rte(), target_runnable(node, target), 1e6, inject_at,
        sim::Duration::zero()));
  } else if (fault_class == "heartbeat_loss") {
    injector.add(inject::make_heartbeat_suppression(
        node.rte(), target_runnable(node, target), inject_at,
        sim::Duration::zero()));
  } else if (fault_class == "invalid_branch") {
    const RunnableId from = target_runnable(node, target);
    const RunnableId wrong = target_runnable(node, target + 2);
    injector.add(inject::make_invalid_branch(node.rte(), node.safespeed_task(),
                                             from, wrong, inject_at,
                                             sim::Duration::zero()));
  } else if (fault_class == "task_hang") {
    injector.add(inject::make_task_hang(node.rte(), node.safespeed_task(),
                                        inject_at, sim::Duration::zero()));
  }
  if (faulty) injector.arm();

  // Service-availability probe: every 10 ms, is the node delivering full
  // service (not dark in a reboot, not parked in the safe state)?
  std::uint64_t probes = 0;
  std::uint64_t available = 0;
  engine.every(
      sim::Duration::millis(10),
      [&] {
        ++probes;
        if (!node.rebooting() && !node.in_safe_state()) ++available;
      },
      sim::EventPriority::kMonitor);

  node.start();
  engine.run_until(run_until);

  const double availability =
      probes > 0 ? static_cast<double>(available) / probes : 1.0;
  const double latency_ms =
      detected ? (first_detection - inject_at).as_micros() / 1000.0 : -1.0;

  harness::RunResult result;
  result.rows.push_back({pol->id, fault_class, detected ? "1" : "0",
                         fmt(latency_ms, 3), std::to_string(false_alarms),
                         std::to_string(node.resets_performed()),
                         fmt(availability)});
  if (faulty && !detected && pol->id == "baseline") {
    // The baseline reproduces the paper configuration; a miss there is a
    // regression, not a policy property.
    result.misdetect = "baseline missed " + fault_class;
  }
  return result;
}

/// Per-policy reduction of the row list.
struct PolicyScore {
  std::string id;
  std::uint32_t hash24 = 0;
  std::uint64_t faulty_runs = 0;
  std::uint64_t detections = 0;
  double latency_sum_ms = 0;
  std::uint64_t false_alarm_runs = 0;
  std::uint64_t clean_runs = 0;
  double availability_sum = 0;
  std::uint64_t runs = 0;

  [[nodiscard]] double coverage() const {
    return faulty_runs ? static_cast<double>(detections) / faulty_runs : 0.0;
  }
  [[nodiscard]] double mean_latency_ms() const {
    return detections ? latency_sum_ms / detections : -1.0;
  }
  [[nodiscard]] double false_alarm_rate() const {
    return runs ? static_cast<double>(false_alarm_runs) / runs : 0.0;
  }
  [[nodiscard]] double availability() const {
    return runs ? availability_sum / runs : 0.0;
  }
  /// Composite ranking: coverage dominates, false alarms and detection
  /// latency subtract, availability breaks the detection ties. An
  /// undetected class contributes the full simulation window as latency
  /// through the coverage term already, so the latency term only uses
  /// actual detections.
  [[nodiscard]] double score() const {
    const double latency_penalty =
        detections ? mean_latency_ms() / 1000.0 : 1.0;
    return 100.0 * coverage() - 25.0 * false_alarm_rate() -
           10.0 * latency_penalty + 10.0 * availability();
  }
};

}  // namespace

int main(int argc, char** argv) {
  harness::CampaignCli cli(
      "exp_policy_sweep",
      "dependability-policy sweep: rank catalog-generated policy variants "
      "by coverage, detection latency, false-alarm rate and availability "
      "over a 5-class fault matrix",
      /*default_seed=*/0, /*default_runs=*/1,
      "repetitions of each (policy x fault class) cell",
      "exp_policy_sweep.csv");
  std::uint64_t policies = 120;
  cli.parser().add("policies", &policies,
                   "policy variants to sweep (baseline + grid + seeded "
                   "perturbations)");
  if (!cli.parse(argc, argv)) return cli.exit_code();

  // Generate the catalog and push every variant through the declarative
  // text format: what the campaign executes is what compile_policy()
  // accepted, so the sweep exercises the compiler on every variant.
  policy::PolicyCatalog catalog(cli.seed);
  std::vector<std::shared_ptr<const policy::PolicySet>> compiled;
  for (const policy::PolicySet& variant : catalog.generate(policies)) {
    const std::string text = policy::to_text(variant);
    policy::CompileResult result = policy::compile_policy(text);
    if (!result.ok()) {
      std::cerr << "catalog variant '" << variant.id
                << "' rejected by its own compiler:\n"
                << result.format();
      return 1;
    }
    if (policy::to_text(*result.policy) != text) {
      std::cerr << "catalog variant '" << variant.id
                << "' does not round-trip through the text format\n";
      return 1;
    }
    compiled.push_back(
        std::make_shared<const policy::PolicySet>(std::move(*result.policy)));
  }

  // Flatten (policy x fault class), repeated --runs times.
  std::vector<std::pair<std::size_t, std::size_t>> flat;
  for (std::uint64_t rep = 0; rep < cli.runs; ++rep) {
    for (std::size_t p = 0; p < compiled.size(); ++p) {
      for (std::size_t f = 0; f < fault_classes().size(); ++f) {
        flat.emplace_back(p, f);
      }
    }
  }
  std::vector<harness::RunSpec> run_specs =
      harness::CampaignRunner::make_specs(flat.size(), cli.seed);
  for (std::size_t i = 0; i < flat.size(); ++i) {
    run_specs[i].policy_id = compiled[flat[i].first]->id;
    run_specs[i].label = compiled[flat[i].first]->id + "/" +
                         fault_classes()[flat[i].second];
  }

  harness::CampaignRunner runner(
      cli.config(), [&](const harness::RunContext& ctx) {
        const auto& [p, f] = flat[ctx.spec().run_index];
        return run_one(compiled[p], fault_classes()[f], ctx.spec().seed);
      });
  const harness::CampaignOutcome outcome = runner.run(run_specs);
  const harness::CampaignReport report(run_specs, outcome);

  // Fold the per-run rows into per-policy scores. The rows arrive in
  // run-index order, so this reduction is deterministic across --jobs.
  std::map<std::string, PolicyScore> scores;
  for (const auto& policy : compiled) {
    PolicyScore& s = scores[policy->id];
    s.id = policy->id;
    s.hash24 = policy::version_hash24(*policy);
  }
  for (const auto& row : report.rows()) {
    PolicyScore& s = scores[row[0]];
    const bool faulty = row[1] != "no_fault";
    const bool detected = row[2] == "1";
    ++s.runs;
    if (faulty) {
      ++s.faulty_runs;
      if (detected) {
        ++s.detections;
        s.latency_sum_ms += std::strtod(row[3].c_str(), nullptr);
      }
    } else {
      ++s.clean_runs;
    }
    if (std::strtoull(row[4].c_str(), nullptr, 10) > 0) ++s.false_alarm_runs;
    s.availability_sum += std::strtod(row[6].c_str(), nullptr);
  }
  std::vector<PolicyScore> ranking;
  ranking.reserve(scores.size());
  for (auto& [id, s] : scores) ranking.push_back(std::move(s));
  std::sort(ranking.begin(), ranking.end(),
            [](const PolicyScore& a, const PolicyScore& b) {
              if (a.score() != b.score()) return a.score() > b.score();
              return a.id < b.id;
            });

  std::cout << "=== Dependability-policy sweep ===\n"
            << ranking.size() << " policies x " << fault_classes().size()
            << " fault classes, " << report.completed_runs() << " runs ("
            << cli.jobs << " worker(s))\n\ntop of the ranking:\n";
  for (std::size_t i = 0; i < ranking.size() && i < 10; ++i) {
    const PolicyScore& s = ranking[i];
    std::cout << "  " << i + 1 << ". " << s.id << "  coverage "
              << fmt(s.coverage(), 2) << "  latency "
              << fmt(s.mean_latency_ms(), 1) << " ms  availability "
              << fmt(s.availability(), 3) << "  false alarms "
              << fmt(s.false_alarm_rate(), 2) << "  score "
              << fmt(s.score(), 2) << "\n";
  }
  if (!report.quarantined().empty()) {
    std::cout << '\n' << report.quarantine_summary();
  }

  {
    std::ofstream csv(cli.csv);
    csv << "rank,policy,version_hash24,coverage,mean_latency_ms,"
           "availability,false_alarm_rate,score\n";
    for (std::size_t i = 0; i < ranking.size(); ++i) {
      const PolicyScore& s = ranking[i];
      csv << i + 1 << ',' << s.id << ',' << s.hash24 << ','
          << fmt(s.coverage()) << ',' << fmt(s.mean_latency_ms(), 3) << ','
          << fmt(s.availability()) << ',' << fmt(s.false_alarm_rate()) << ','
          << fmt(s.score()) << '\n';
    }
  }
  std::cout << "\nranking written to " << cli.csv << '\n';
  {
    std::ofstream runs_csv(cli.stem() + ".runs.csv");
    report.write_rows_csv(
        runs_csv,
        "policy,fault_class,detected,latency_ms,false_alarms,resets,"
        "availability");
  }
  cli.write_artifacts(report, runner.config(), outcome, std::cout);

  // Shape check: a real sweep ranks at least 100 policies; the baseline
  // must detect every faulty class without false alarms (it reproduces
  // the paper configuration) and must not rank below a policy that
  // detects nothing.
  const auto baseline =
      std::find_if(ranking.begin(), ranking.end(),
                   [](const PolicyScore& s) { return s.id == "baseline"; });
  bool shape_ok = ranking.size() >= 100 || policies < 100;
  shape_ok = shape_ok && baseline != ranking.end();
  if (baseline != ranking.end()) {
    shape_ok = shape_ok && baseline->coverage() > 0.99;
    shape_ok = shape_ok && baseline->false_alarm_rate() == 0.0;
  }
  shape_ok = shape_ok && report.quarantined().empty();
  std::cout << "--- sweep shape ---\n"
            << "expected: baseline detects all faulty classes with zero "
               "false alarms; >= 100 policies ranked at full width\n"
            << "shape check: " << (shape_ok ? "PASS" : "FAIL") << "\n";
  return shape_ok ? 0 : 1;
}
