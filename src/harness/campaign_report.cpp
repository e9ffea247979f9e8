#include "harness/campaign_report.hpp"

#include <sys/resource.h>

#include <fstream>
#include <sstream>

#include "profile/report.hpp"
#include "profile/trace_export.hpp"
#include "telemetry/attribution.hpp"
#include "telemetry/metrics.hpp"

namespace easis::harness {

CampaignReport::CampaignReport(const std::vector<RunSpec>& specs,
                               const CampaignOutcome& outcome) {
  for (std::size_t i = 0; i < outcome.results.size(); ++i) {
    const RunResult& result = outcome.results[i];
    runs_.push_back(RunRecord{i, i < specs.size() ? specs[i].label : "",
                              i < specs.size() ? specs[i].seed : 0, &result});
    // Skipped runs never executed (--fail-fast): not quarantined, not
    // completed — they simply don't exist for the reduction.
    if (result.status == RunStatus::kRunSkipped) continue;
    if (result.status != RunStatus::kRunOk) {
      quarantined_.push_back({i, i < specs.size() ? specs[i].label : "",
                              result.status, result.error});
      continue;
    }
    ++completed_;
    coverage_.merge(result.coverage);
    rows_.insert(rows_.end(), result.rows.begin(), result.rows.end());
  }
}

void CampaignReport::write_coverage_csv(std::ostream& out) const {
  out << "fault_class,detector,detections,experiments,coverage,"
         "mean_latency_ms\n";
  for (const auto& fc : coverage_.fault_classes()) {
    for (const auto& det : coverage_.detector_names()) {
      out << fc << ',' << det << ',' << coverage_.detections(fc, det) << ','
          << coverage_.experiments(fc, det) << ','
          << coverage_.coverage(fc, det);
      const auto* lat = coverage_.latency_stats(fc, det);
      out << ',' << (lat ? lat->mean() : -1.0) << '\n';
    }
  }
}

void CampaignReport::write_rows_csv(std::ostream& out,
                                    const std::string& header) const {
  out << header << '\n';
  for (const auto& row : rows_) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out << ',';
      out << row[i];
    }
    out << '\n';
  }
}

void CampaignReport::write_timing_csv(std::ostream& out,
                                      const CampaignConfig& config,
                                      const CampaignOutcome& outcome) const {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto cpu_us =
      (usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) * 1'000'000 +
      usage.ru_utime.tv_usec + usage.ru_stime.tv_usec;
  out << "jobs,seed,runs,completed,timeouts,errors,skipped,wall_s,runs_per_s,"
         "cpu_s\n"
      << config.jobs << ',' << config.seed << ',' << outcome.results.size()
      << ',' << completed_ << ',' << outcome.timeouts << ',' << outcome.errors
      << ',' << outcome.skipped << ',' << outcome.wall_seconds << ','
      << outcome.runs_per_second() << ','
      << static_cast<double>(cpu_us) / 1e6 << '\n';
}

std::string CampaignReport::quarantine_summary() const {
  if (quarantined_.empty()) return "";
  std::ostringstream out;
  out << quarantined_.size() << " run(s) quarantined:\n";
  for (const auto& q : quarantined_) {
    out << "  run " << q.run_index;
    if (!q.label.empty()) out << " [" << q.label << "]";
    out << ": " << to_string(q.status);
    if (!q.error.empty()) out << " — " << q.error;
    out << '\n';
  }
  return out.str();
}

void CampaignReport::write_event_log(std::ostream& out) const {
  out << "# easis campaign event log v1\n";
  out << "# runs=" << runs_.size() << '\n';
  for (const RunRecord& run : runs_) {
    const RunResult& result = *run.result;
    out << "# run index=" << run.run_index << " label=" << run.label
        << " seed=" << run.seed << " status=" << to_string(result.status)
        << " events=" << result.events.size()
        << " truncated=" << (result.events_truncated ? 1 : 0) << '\n';
    for (const telemetry::Event& event : result.events) {
      telemetry::write_event_line(out, event);
      out << '\n';
    }
  }
}

void CampaignReport::write_metrics(std::ostream& out, bool csv) const {
  telemetry::MetricsRegistry registry;
  registry.counter("easis_campaign_runs_total").inc(runs_.size());
  for (const RunRecord& run : runs_) {
    registry
        .counter("easis_campaign_run_status_total",
                 "status=\"" + std::string(to_string(run.result->status)) +
                     "\"")
        .inc();
    telemetry::replay_into_metrics(run.result->events, registry);
  }
  if (csv) {
    registry.write_csv(out);
  } else {
    registry.write_prometheus(out);
  }
}

std::vector<std::size_t> CampaignReport::flight_dump_candidates() const {
  std::vector<std::size_t> out;
  for (const RunRecord& run : runs_) {
    const RunResult& result = *run.result;
    if (result.status == RunStatus::kRunSkipped) continue;  // never executed
    if (result.status != RunStatus::kRunOk || !result.misdetect.empty()) {
      out.push_back(run.run_index);
    }
  }
  return out;
}

void CampaignReport::write_flight_dump(std::ostream& out,
                                       std::size_t run_index) const {
  if (run_index >= runs_.size()) return;
  const RunRecord& run = runs_[run_index];
  const RunResult& result = *run.result;
  out << "flight recorder dump — run " << run.run_index;
  if (!run.label.empty()) out << " [" << run.label << "]";
  out << " seed=" << run.seed << " status=" << to_string(result.status)
      << '\n';
  if (!result.error.empty()) out << "error: " << result.error << '\n';
  if (!result.misdetect.empty()) {
    out << "misdetect: " << result.misdetect << '\n';
  }
  if (!result.flight_note.empty()) {
    // The run's last published post-mortem note — for resource scenarios
    // the per-task budget/usage snapshot at (or near) the hang.
    out << "note:\n" << result.flight_note;
    if (result.flight_note.back() != '\n') out << '\n';
  }
  out << result.events.size() << " event(s)";
  if (result.events_truncated) out << " (older events dropped by the ring)";
  out << '\n';
  for (const telemetry::Event& event : result.events) {
    telemetry::write_event_line(out, event);
    out << '\n';
  }
}

bool CampaignReport::has_profiles() const {
  for (const RunRecord& run : runs_) {
    if (run.result->profile.enabled) return true;
  }
  return false;
}

void CampaignReport::write_profile_csv(std::ostream& out) const {
  profile::CampaignRollup rollup;
  for (const RunRecord& run : runs_) rollup.add_run(run.result->profile);
  rollup.write_csv(out);
}

void CampaignReport::write_profile_shape_csv(std::ostream& out) const {
  profile::CampaignRollup rollup;
  for (const RunRecord& run : runs_) rollup.add_run(run.result->profile);
  rollup.write_shape_csv(out);
}

void CampaignReport::write_trace_json(std::ostream& out,
                                      std::int64_t epoch_ns) const {
  profile::TraceWriter trace(out);
  trace.begin();
  for (const RunRecord& run : runs_) {
    if (!run.result->profile.enabled) continue;
    const std::string label = run.label.empty()
                                  ? "run" + std::to_string(run.run_index)
                                  : run.label;
    trace.add_run(run.result->profile,
                  label + "#" + std::to_string(run.run_index), epoch_ns);
  }
  trace.end();
}

std::size_t CampaignReport::write_flight_dumps(
    const std::string& prefix) const {
  std::size_t written = 0;
  for (std::size_t run_index : flight_dump_candidates()) {
    std::ofstream out(prefix + ".run" + std::to_string(run_index) +
                      ".flight.txt");
    if (!out) continue;
    write_flight_dump(out, run_index);
    ++written;
  }
  return written;
}

}  // namespace easis::harness
