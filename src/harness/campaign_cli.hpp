// Shared CLI surface of the campaign binaries: every harness-ported bench
// exposes the same --jobs/--seed/--runs/--csv quartet (plus --deadline-ms
// and --timing-csv) and the util::TelemetryFlags group (--log-level,
// --events-out, --metrics-out, --flight-prefix), so campaign automation
// can drive any of them uniformly.
#pragma once

#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>

#include "harness/campaign_report.hpp"
#include "harness/campaign_runner.hpp"
#include "util/argparse.hpp"

namespace easis::harness {

class CampaignCli {
 public:
  unsigned jobs = 1;
  std::uint64_t seed = 0;
  std::uint64_t runs = 0;
  std::string csv;
  std::string timing_csv;
  std::uint64_t deadline_ms = 0;
  bool fail_fast = false;
  util::TelemetryFlags telemetry;

  CampaignCli(const std::string& program, const std::string& description,
              std::uint64_t default_seed, std::uint64_t default_runs,
              const std::string& runs_help, const std::string& default_csv)
      : seed(default_seed),
        runs(default_runs),
        csv(default_csv),
        parser_(program, description) {
    parser_.add("jobs", &jobs, "worker threads (1 = serial)");
    parser_.add("seed", &seed, "campaign seed; per-run seeds derive from it");
    parser_.add("runs", &runs, runs_help);
    parser_.add("csv", &csv, "result CSV path (deterministic across --jobs)");
    parser_.add("timing-csv", &timing_csv,
                "wall-clock/throughput CSV path (empty = skip)");
    parser_.add("deadline-ms", &deadline_ms,
                "per-run wall-clock deadline, 0 = unguarded");
    parser_.add("fail-fast", &fail_fast,
                "stop dispatching new runs after the first failed verdict "
                "(completed runs still flush deterministically)");
    telemetry.register_flags(parser_);
  }

  /// Returns true when the program should proceed; otherwise exit with
  /// exit_code().
  [[nodiscard]] bool parse(int argc, const char* const* argv) {
    ok_ = parser_.parse(argc, argv, std::cerr) &&
          telemetry.apply_log_level(std::cerr);
    return ok_;
  }

  [[nodiscard]] int exit_code() const { return parser_.exited() ? 0 : 2; }

  /// Access to the underlying parser so a bench can register extra flags
  /// (e.g. exp_policy_sweep's --policies) before parse().
  [[nodiscard]] util::ArgParser& parser() { return parser_; }

  [[nodiscard]] CampaignConfig config() const {
    CampaignConfig config;
    config.jobs = jobs;
    config.seed = seed;
    config.run_deadline = std::chrono::milliseconds(deadline_ms);
    config.fail_fast = fail_fast;
    // Any profiling export (--trace-out / --profile-csv / --profile-shape)
    // turns the per-run profiler on; without one the campaign pays only
    // the per-site thread-local null check.
    config.profile = telemetry.profiling_requested();
    if (telemetry.trace_out.empty()) config.profile_ring_capacity = 0;
    return config;
  }

  /// The result CSV path with a trailing ".csv" stripped: the prefix of
  /// the per-run rows file (<stem>.runs.csv) and the flight dumps.
  [[nodiscard]] std::string stem() const {
    if (csv.size() > 4 && csv.ends_with(".csv")) {
      return csv.substr(0, csv.size() - 4);
    }
    return csv;
  }

  /// The prefix flight-recorder dumps are written under: --flight-prefix
  /// when given, else stem().
  [[nodiscard]] std::string flight_prefix() const {
    return telemetry.flight_prefix.empty() ? stem() : telemetry.flight_prefix;
  }

  /// Writes the artifacts the flags requested: the timing CSV
  /// (--timing-csv, for the campaign's `config`), the event log
  /// (--events-out), the metrics export (--metrics-out; ".csv" suffix
  /// selects CSV, else Prometheus text), the profiling exports
  /// (--trace-out / --profile-csv / --profile-shape), and — always — one
  /// flight dump per failed/misdetecting/quarantined run. The outcome
  /// supplies the trace epoch. Progress notes and the campaign wall clock
  /// go to `log`.
  void write_artifacts(const CampaignReport& report,
                       const CampaignConfig& config,
                       const CampaignOutcome& outcome,
                       std::ostream& log) const {
    if (!timing_csv.empty()) {
      std::ofstream out(timing_csv);
      report.write_timing_csv(out, config, outcome);
    }
    if (!telemetry.events_out.empty()) {
      std::ofstream out(telemetry.events_out);
      report.write_event_log(out);
      log << "event log: " << telemetry.events_out << '\n';
    }
    if (!telemetry.metrics_out.empty()) {
      std::ofstream out(telemetry.metrics_out);
      const bool as_csv =
          telemetry.metrics_out.size() > 4 &&
          telemetry.metrics_out.rfind(".csv") ==
              telemetry.metrics_out.size() - 4;
      report.write_metrics(out, as_csv);
      log << "metrics: " << telemetry.metrics_out << '\n';
    }
    if (!telemetry.profile_csv.empty()) {
      std::ofstream out(telemetry.profile_csv);
      report.write_profile_csv(out);
      log << "profile rollup: " << telemetry.profile_csv << '\n';
    }
    if (!telemetry.profile_shape.empty()) {
      std::ofstream out(telemetry.profile_shape);
      report.write_profile_shape_csv(out);
      log << "profile shape: " << telemetry.profile_shape << '\n';
    }
    if (!telemetry.trace_out.empty()) {
      std::ofstream out(telemetry.trace_out);
      report.write_trace_json(out, outcome.start_ns);
      log << "trace: " << telemetry.trace_out << '\n';
    }
    const std::size_t dumps = report.write_flight_dumps(flight_prefix());
    if (dumps > 0) {
      log << dumps << " flight-recorder dump(s): " << flight_prefix()
          << ".run<index>.flight.txt\n";
    }
    log << "campaign wall clock: " << outcome.wall_seconds << " s ("
        << outcome.runs_per_second() << " runs/s)\n";
  }

 private:
  util::ArgParser parser_;
  bool ok_ = false;
};

}  // namespace easis::harness
