#include "wdg/config_check.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <sstream>
#include <stdexcept>
#include <unordered_set>

#include "util/logging.hpp"

namespace easis::wdg {

namespace {

void add(std::vector<ConfigFinding>& findings, FindingSeverity severity,
         RunnableId runnable, std::string message) {
  findings.push_back(ConfigFinding{severity, runnable, std::move(message)});
}

}  // namespace

std::vector<ConfigFinding> ConfigChecker::check(
    const SoftwareWatchdog& watchdog, const PeriodLookup& period_of) {
  std::vector<ConfigFinding> findings;
  const auto& hbm = watchdog.heartbeat_unit();
  const auto& pfc = watchdog.pfc_unit();
  const sim::Duration check = watchdog.config().check_period;

  // --- fault hypothesis consistency -----------------------------------------
  for (RunnableId id : hbm.monitored_runnables()) {
    if (watchdog.is_virtual(id)) continue;
    const RunnableMonitor& m = hbm.config(id);

    if (m.monitor_aliveness && m.min_heartbeats == 0) {
      add(findings, FindingSeverity::kWarning, id,
          m.name + ": aliveness monitored but min_heartbeats=0 (vacuous)");
    }
    if (m.monitor_arrival_rate && m.max_arrivals == 0) {
      add(findings, FindingSeverity::kWarning, id,
          m.name + ": max_arrivals=0 flags every single heartbeat");
    }
    if (!m.monitor_aliveness && !m.monitor_arrival_rate && !m.program_flow) {
      add(findings, FindingSeverity::kWarning, id,
          m.name + ": registered but nothing is monitored");
    }

    if (!period_of) continue;
    const sim::Duration period = period_of(id);
    if (period <= sim::Duration::zero()) continue;  // sporadic: skip timing
    const std::int64_t expected_aliveness =
        (static_cast<std::int64_t>(m.aliveness_cycles) * check.as_micros()) /
        period.as_micros();
    if (m.monitor_aliveness &&
        expected_aliveness < static_cast<std::int64_t>(m.min_heartbeats)) {
      add(findings, FindingSeverity::kError, id,
          m.name + ": window yields at most " +
              std::to_string(expected_aliveness) +
              " heartbeats but min_heartbeats=" +
              std::to_string(m.min_heartbeats) +
              " (guaranteed false positives)");
    }
    const std::int64_t expected_arrivals =
        (static_cast<std::int64_t>(m.arrival_cycles) * check.as_micros() +
         period.as_micros() - 1) /
        period.as_micros();
    if (m.monitor_arrival_rate &&
        expected_arrivals > static_cast<std::int64_t>(m.max_arrivals)) {
      add(findings, FindingSeverity::kError, id,
          m.name + ": nominal rate produces up to " +
              std::to_string(expected_arrivals) +
              " arrivals per window but max_arrivals=" +
              std::to_string(m.max_arrivals) +
              " (guaranteed false positives)");
    }
    if (m.monitor_aliveness &&
        expected_aliveness >
            2 * static_cast<std::int64_t>(m.min_heartbeats) + 2) {
      add(findings, FindingSeverity::kWarning, id,
          m.name + ": hypothesis tolerates less than half the nominal "
                   "rate (slow detection)");
    }
  }

  // --- flow table ---------------------------------------------------------------
  const auto flow_monitored = pfc.monitored_runnables();
  std::unordered_set<RunnableId> monitored_set(flow_monitored.begin(),
                                               flow_monitored.end());
  std::map<TaskId, std::vector<RunnableId>> by_task;
  for (RunnableId id : flow_monitored) {
    by_task[pfc.task_of(id)].push_back(id);
  }

  for (RunnableId id : flow_monitored) {
    for (RunnableId succ : pfc.successors_of(id)) {
      if (!monitored_set.contains(succ)) {
        add(findings, FindingSeverity::kWarning, id,
            "flow edge to unmonitored runnable #" +
                std::to_string(succ.value()) + " is inert");
      } else if (pfc.task_of(succ) != pfc.task_of(id)) {
        add(findings, FindingSeverity::kError, id,
            "flow edge crosses tasks (#" +
                std::to_string(pfc.task_of(id).value()) + " -> #" +
                std::to_string(pfc.task_of(succ).value()) +
                "); contexts are per task");
      }
    }
  }

  for (const auto& [task, runnables] : by_task) {
    const auto entries = pfc.entry_points_of(task);
    if (entries.empty()) {
      if (runnables.size() > 1) {
        add(findings, FindingSeverity::kWarning, runnables.front(),
            "task #" + std::to_string(task.value()) +
                ": no entry points configured; any job start is accepted");
      }
      continue;
    }
    // Reachability from the entry points within this task.
    std::unordered_set<RunnableId> reached(entries.begin(), entries.end());
    std::deque<RunnableId> frontier(entries.begin(), entries.end());
    while (!frontier.empty()) {
      const RunnableId current = frontier.front();
      frontier.pop_front();
      for (RunnableId succ : pfc.successors_of(current)) {
        if (monitored_set.contains(succ) && reached.insert(succ).second) {
          frontier.push_back(succ);
        }
      }
    }
    for (RunnableId id : runnables) {
      if (!reached.contains(id)) {
        add(findings, FindingSeverity::kError, id,
            "flow-monitored runnable unreachable from the task's entry "
            "points (every execution would be flagged)");
      }
      if (pfc.successors_of(id).empty() && runnables.size() > 1) {
        add(findings, FindingSeverity::kWarning, id,
            "flow dead end: no permitted successor (next monitored "
            "runnable would be flagged)");
      }
    }
  }

  return findings;
}

bool ConfigChecker::acceptable(const std::vector<ConfigFinding>& findings) {
  return std::none_of(findings.begin(), findings.end(),
                      [](const ConfigFinding& f) {
                        return f.severity == FindingSeverity::kError;
                      });
}

void ConfigChecker::write(std::ostream& out,
                          const std::vector<ConfigFinding>& findings) {
  if (findings.empty()) {
    out << "watchdog configuration: no findings\n";
    return;
  }
  for (const ConfigFinding& f : findings) {
    out << (f.severity == FindingSeverity::kError ? "ERROR" : "warning")
        << " [runnable " << f.runnable << "] " << f.message << '\n';
  }
}

void ConfigChecker::enforce(const SoftwareWatchdog& watchdog,
                            const PeriodLookup& period_of,
                            std::string_view owner) {
  const auto findings = check(watchdog, period_of);
  if (!acceptable(findings)) {
    std::ostringstream report;
    report << owner << ": watchdog configuration invalid\n";
    write(report, findings);
    throw std::logic_error(report.str());
  }
  for (const auto& finding : findings) {
    EASIS_LOG(util::LogLevel::kWarn, "validator") << finding.message;
  }
}

}  // namespace easis::wdg
