// Deterministic reduction of a campaign: per-run partial results fold into
// one coverage table / row list in run-index order, so the report is
// bit-identical no matter how many workers produced the partials.
//
// Wall-clock and throughput are inherently nondeterministic, so they go to
// a *separate* timing CSV; the result CSV stays byte-comparable across
// --jobs values (the property the determinism test locks in). The same
// split governs telemetry: the event log and the metrics export contain
// only sim-time-stamped, run-index-ordered data and are byte-comparable
// too, while flight-recorder dumps exist per failed run.
//
// The report borrows the outcome: it keeps each run's spec label and seed,
// and a pointer to the run's RunResult for everything else (event log,
// profile, error and post-mortem notes). The campaign therefore holds one
// copy of every run's telemetry, owned by the CampaignOutcome, and a report
// must not outlive the outcome it was built from.
#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "harness/campaign_runner.hpp"
#include "inject/campaign.hpp"

namespace easis::harness {

class CampaignReport {
 public:
  /// Reduces the outcome: coverage tables merge and rows concatenate in
  /// run-index order; quarantined/errored runs contribute only to the
  /// quarantine list (their partial results are dropped — that is the
  /// quarantine). The telemetry exports read every run's result through
  /// `outcome`, including quarantined runs (their ring snapshot is all that
  /// survives), so `outcome` must outlive the report.
  CampaignReport(const std::vector<RunSpec>& specs,
                 const CampaignOutcome& outcome);
  /// A report of a temporary outcome would dangle: name the outcome.
  CampaignReport(const std::vector<RunSpec>& specs,
                 CampaignOutcome&& outcome) = delete;

  [[nodiscard]] const inject::CoverageTable& coverage() const {
    return coverage_;
  }
  [[nodiscard]] const std::vector<std::vector<std::string>>& rows() const {
    return rows_;
  }

  struct QuarantinedRun {
    std::size_t run_index;
    std::string label;
    RunStatus status;
    std::string error;
  };
  [[nodiscard]] const std::vector<QuarantinedRun>& quarantined() const {
    return quarantined_;
  }
  [[nodiscard]] std::size_t completed_runs() const { return completed_; }

  /// Writes the canonical coverage CSV (the exp_coverage /
  /// exp_network_coverage format): fault_class,detector,detections,
  /// experiments,coverage,mean_latency_ms. Deterministic across --jobs.
  void write_coverage_csv(std::ostream& out) const;

  /// Writes concatenated per-run rows under the given header.
  /// Deterministic across --jobs.
  void write_rows_csv(std::ostream& out, const std::string& header) const;

  /// Writes the nondeterministic side channel: one row of wall-clock,
  /// throughput and quarantine counters for this execution.
  void write_timing_csv(std::ostream& out, const CampaignConfig& config,
                        const CampaignOutcome& outcome) const;

  /// Human-readable quarantine summary (empty string when clean).
  [[nodiscard]] std::string quarantine_summary() const;

  /// Writes the structured event log: a per-run `# run ...` header line
  /// followed by the run's canonical event lines, in run-index order.
  /// Deterministic across --jobs (runs quarantined under a wall-clock
  /// deadline are the one documented exception — the snapshot depends on
  /// when the supervisor fired).
  void write_event_log(std::ostream& out) const;

  /// Replays every run's events into a fresh MetricsRegistry (event
  /// counters, chain counters, latency histograms, campaign run counters)
  /// and writes it to `out` — CSV when `csv`, else Prometheus text.
  void write_metrics(std::ostream& out, bool csv = false) const;

  /// Runs that warrant a flight-recorder dump: quarantined, errored, or
  /// self-flagged as misdetecting.
  [[nodiscard]] std::vector<std::size_t> flight_dump_candidates() const;

  /// Writes one run's flight-recorder dump (header + event lines).
  void write_flight_dump(std::ostream& out, std::size_t run_index) const;

  /// Writes `<prefix>.run<index>.flight.txt` for every dump candidate;
  /// returns the number of files written.
  std::size_t write_flight_dumps(const std::string& prefix) const;

  /// True when at least one run carried a harvested hot-path profile
  /// (i.e. the campaign executed with CampaignConfig::profile on).
  [[nodiscard]] bool has_profiles() const;

  /// Writes the full profile rollup CSV (per-span min/mean/p99 wall-time
  /// statistics across runs) — nondeterministic, artifact-only. Runs fold
  /// in run-index order.
  void write_profile_csv(std::ostream& out) const;

  /// Writes the deterministic projection of the rollup (kind,span,depth,
  /// hits,runs) — byte-identical across --jobs; the profile_jobs_
  /// determinism gate compares it.
  void write_profile_shape_csv(std::ostream& out) const;

  /// Writes the campaign's Chrome trace-event JSON (Perfetto-loadable;
  /// one track per worker). `epoch_ns` is CampaignOutcome::start_ns.
  void write_trace_json(std::ostream& out, std::int64_t epoch_ns) const;

 private:
  /// What the telemetry exports need beyond the run's own result, which
  /// stays in (and is borrowed from) the outcome. One entry per run.
  struct RunRecord {
    std::size_t run_index;
    std::string label;
    std::uint64_t seed;
    const RunResult* result;
  };

  inject::CoverageTable coverage_;
  std::vector<std::vector<std::string>> rows_;
  std::vector<QuarantinedRun> quarantined_;
  std::vector<RunRecord> runs_;
  std::size_t completed_ = 0;
};

}  // namespace easis::harness
