// Static validation of a Software Watchdog configuration.
//
// The paper's configuration is generated from the system description
// (fault hypothesis per runnable, permitted successor table). This checker
// catches the integration mistakes that would otherwise surface as false
// positives or blind spots at runtime:
//   - hypothesis inconsistencies (min > max possible, window too small for
//     the runnable's activation period),
//   - flow-table defects (monitored runnable unreachable from any entry
//     point, edges referencing unmonitored runnables, dead ends in tasks
//     with entry points).
// Virtual runnables (SoftwareWatchdog::add_virtual_runnable) have no
// hypothesis to check and yield no finding.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "sim/time.hpp"
#include "wdg/watchdog.hpp"

namespace easis::wdg {

enum class FindingSeverity { kWarning, kError };

struct ConfigFinding {
  FindingSeverity severity = FindingSeverity::kWarning;
  RunnableId runnable;
  std::string message;
};

class ConfigChecker {
 public:
  /// `activation_period` lookup: expected activation period per runnable
  /// (from the schedule); invalid/zero durations skip the timing checks.
  using PeriodLookup = std::function<sim::Duration(RunnableId)>;

  /// Runs all checks against the watchdog's current configuration.
  [[nodiscard]] static std::vector<ConfigFinding> check(
      const SoftwareWatchdog& watchdog, const PeriodLookup& period_of = {});

  /// True if no finding has severity kError.
  [[nodiscard]] static bool acceptable(
      const std::vector<ConfigFinding>& findings);

  /// Renders findings one per line.
  static void write(std::ostream& out,
                    const std::vector<ConfigFinding>& findings);

  /// Boot-time self check: a configuration with guaranteed false positives
  /// or flow-table defects must not go into operation. Throws
  /// std::logic_error ("<owner>: watchdog configuration invalid" plus the
  /// findings) on any error; otherwise logs each warning.
  static void enforce(const SoftwareWatchdog& watchdog,
                      const PeriodLookup& period_of, std::string_view owner);
};

}  // namespace easis::wdg
