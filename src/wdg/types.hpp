// Software Watchdog shared types: error classification, reports, health
// states (paper Section 3).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "sim/time.hpp"
#include "util/ids.hpp"

namespace easis::wdg {

/// The three error classes the Software Watchdog detects (paper §3.2).
enum class ErrorType : std::uint8_t {
  /// The runnable's aliveness indication was not executed frequently
  /// enough within its monitoring period (blocked / preempted / hanging).
  kAliveness = 0,
  /// More aliveness indications within one period than expected
  /// (excessively dispatched object).
  kArrivalRate = 1,
  /// The executed successor was not in the permitted predecessor/successor
  /// look-up table.
  kProgramFlow = 2,
  /// Aliveness error recognised as a secondary symptom of a program flow
  /// error (unit collaboration, paper Figure 6): reported once, accumulated.
  kAccumulatedAliveness = 3,
  /// Elapsed time between a start and an end checkpoint outside the
  /// permitted window (deadline supervision, extension).
  kDeadline = 4,
  /// Network communication fault on a monitored channel: failed E2E
  /// checks or a signal reception timeout (communication monitoring,
  /// extension towards the paper's ISS domain-crossing outlook).
  kCommunication = 5,
  /// Persistent fault memory damage: an NVM bank failed its CRC check at
  /// boot (reset-safe fault memory extension). Reported by the FMF itself;
  /// carries no runnable/task mapping.
  kNvmCorruption = 6,
  /// A task's modelled heap usage breached its budget watermark or showed
  /// a sustained leak rate (resource supervision, extension).
  kMemoryBudget = 7,
  /// Handle/descriptor usage breached the task budget or the global pool
  /// ran dry while the task kept requesting (resource supervision).
  kHandleExhaustion = 8,
  /// A bounded signal queue stayed above its watermark or overflowed:
  /// the consumer is not keeping up (resource supervision).
  kQueueOverflow = 9,
  /// The modelled CPU-load average stayed above the configured ceiling
  /// for the transgression window (resource supervision).
  kCpuOverload = 10,
  /// The junction temperature crossed a stage of the thermal-derating
  /// ladder, or the temperature sensor went stuck/implausible
  /// (environmental supervision, extension).
  kThermal = 11,
  /// The NVM fault-memory journal ran past its fill watermark, wore out
  /// its erase-cycle budget or started failing writes (filesystem/NVM
  /// supervision, extension).
  kFilesystem = 12,
  /// A user-defined check rule (policy `check` clause, watchdogd's
  /// script.c analogue) evaluated its signal predicate to false.
  kCheckRule = 13,
  /// The power-mode machine misbehaved: a mode overstayed its declared
  /// maximum dwell (stuck-in-sleep, wake-storm overrun), a commanded
  /// transition was refused or hung, or a supervised entity heartbeat
  /// during a mode that contracts silence (power-mode supervision,
  /// duty-cycled sensor-node extension).
  kPowerMode = 14,
};

inline constexpr std::size_t kErrorTypeCount = 15;

[[nodiscard]] constexpr std::string_view to_string(ErrorType t) {
  switch (t) {
    case ErrorType::kAliveness: return "aliveness";
    case ErrorType::kArrivalRate: return "arrival_rate";
    case ErrorType::kProgramFlow: return "program_flow";
    case ErrorType::kAccumulatedAliveness: return "accumulated_aliveness";
    case ErrorType::kDeadline: return "deadline";
    case ErrorType::kCommunication: return "communication";
    case ErrorType::kNvmCorruption: return "nvm_corruption";
    case ErrorType::kMemoryBudget: return "memory_budget";
    case ErrorType::kHandleExhaustion: return "handle_exhaustion";
    case ErrorType::kQueueOverflow: return "queue_overflow";
    case ErrorType::kCpuOverload: return "cpu_overload";
    case ErrorType::kThermal: return "thermal";
    case ErrorType::kFilesystem: return "filesystem";
    case ErrorType::kCheckRule: return "check_rule";
    case ErrorType::kPowerMode: return "power_mode";
  }
  return "?";
}

/// Severity forwarded to the Fault Management Framework.
enum class Severity : std::uint8_t { kInfo, kMinor, kMajor, kCritical };

[[nodiscard]] constexpr std::string_view to_string(Severity s) {
  switch (s) {
    case Severity::kInfo: return "info";
    case Severity::kMinor: return "minor";
    case Severity::kMajor: return "major";
    case Severity::kCritical: return "critical";
  }
  return "?";
}

/// Health of a monitored entity as derived by the TSI unit.
enum class Health : std::uint8_t { kOk, kFaulty };

[[nodiscard]] constexpr std::string_view to_string(Health h) {
  return h == Health::kOk ? "ok" : "faulty";
}

/// One detected error, reported to listeners and to the TSI unit. Every
/// member has an initializer, so a detector's designated initializer names
/// only what it knows; the watchdog fills in a registered runnable's task
/// and application.
struct ErrorReport {
  RunnableId runnable{};
  TaskId task{};
  ApplicationId application{};
  ErrorType type = ErrorType::kAliveness;
  sim::SimTime time{};
  /// Extra context: e.g. the offending predecessor for flow errors.
  RunnableId related{};
  std::string detail{};
};

/// Persistent record of one instrumented section's deadline
/// transgressions (supervised-process client API): serialised into fault
/// memory by the FMF and read back over UDS-lite ReadDataByIdentifier.
struct TransgressionRecord {
  std::string section;
  std::uint32_t count = 0;
  /// Worst observed window duration (open -> close), zero while only
  /// still-open windows transgressed.
  sim::Duration worst = sim::Duration::zero();
  sim::SimTime last_at;
};

}  // namespace easis::wdg
