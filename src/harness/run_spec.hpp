// Job model of the campaign harness: one RunSpec per independent
// simulation run, one RunResult back.
//
// A campaign is a flat list of runs, each fully described by its index and
// a seed derived as util::derive_seed(campaign_seed, run_index). Because
// the seed is a pure function of the index, a run computes the same result
// no matter which worker executes it or in which order — the property the
// deterministic reduction in CampaignReport relies on.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "inject/campaign.hpp"
#include "profile/profiler.hpp"
#include "telemetry/event_log.hpp"

namespace easis::harness {

/// Immutable description of one run, handed to the campaign's run function.
struct RunSpec {
  /// Position in the campaign, 0-based; doubles as the reduction order.
  std::size_t run_index = 0;
  /// Per-run seed, util::derive_seed(campaign_seed, run_index).
  std::uint64_t seed = 0;
  /// Bench-defined label (e.g. the fault class) carried into diagnostics.
  std::string label;
  /// Dependability-policy id the run executes under ("" = baseline);
  /// policy-sweep campaigns set it so diagnostics and flight dumps name
  /// the policy variant.
  std::string policy_id;
};

enum class RunStatus : std::uint8_t {
  kRunOk = 0,
  /// Exceeded the per-run wall-clock deadline; quarantined by the
  /// supervisor, its (eventual) result discarded.
  kRunTimeout,
  /// The run function threw; what() is kept in RunResult::error.
  kRunError,
  /// Never executed: --fail-fast stopped dispatching after an earlier run
  /// failed. Skipped runs contribute nothing to the reduction.
  kRunSkipped,
};

[[nodiscard]] constexpr const char* to_string(RunStatus status) {
  switch (status) {
    case RunStatus::kRunOk: return "ok";
    case RunStatus::kRunTimeout: return "timeout";
    case RunStatus::kRunError: return "error";
    case RunStatus::kRunSkipped: return "skipped";
  }
  return "?";
}

/// What one run contributes to the campaign. Coverage campaigns fill
/// `coverage`; row-per-run campaigns (e.g. the reset-storm policies) fill
/// `rows`, which the reduction concatenates in run-index order.
struct RunResult {
  RunStatus status = RunStatus::kRunOk;
  inject::CoverageTable coverage;
  std::vector<std::vector<std::string>> rows;
  std::string error;
  /// Telemetry events the run emitted (harvested by the harness from the
  /// per-worker bus), in the compact per-run log form: the campaign keeps
  /// this one copy until its exports, and CampaignReport only borrows it.
  /// Completed runs carry the full log; quarantined runs only its last
  /// 256 events, which the supervisor copies out (the flight record).
  telemetry::EventLog events;
  /// True when `events` is a quarantined run's tail that lost older events.
  bool events_truncated = false;
  /// Set by the run function when its own result looks wrong (e.g. an
  /// injection no detector saw); flagged runs get a flight-recorder dump.
  std::string misdetect;
  /// Free-text post-mortem context the run keeps current while executing
  /// (e.g. the per-task resource snapshot); the supervisor copies it into
  /// the quarantined result, so flight dumps of hung runs carry the last
  /// known state. Completed runs keep their final note too.
  std::string flight_note;
  /// Hot-path profile of the run, harvested by the harness from the
  /// per-worker profiler when the campaign runs with profiling on
  /// (profile.enabled is false otherwise). Quarantined runs carry no
  /// profile — their worker never returned to harvest one.
  profile::RunProfile profile;
};

/// Execution context passed alongside the spec. Long-running simulations
/// that want to cooperate with hang quarantine can poll cancelled(); the
/// harness never interrupts a run that doesn't — it abandons the worker
/// and keeps the campaign moving instead.
class RunContext {
 public:
  using FlightNoteFn = std::function<void(std::string)>;

  RunContext(const RunSpec& spec, const std::atomic<bool>& cancel,
             FlightNoteFn flight_note = nullptr)
      : spec_(spec), cancel_(cancel), flight_note_(std::move(flight_note)) {}

  [[nodiscard]] const RunSpec& spec() const { return spec_; }
  [[nodiscard]] bool cancelled() const {
    return cancel_.load(std::memory_order_relaxed);
  }

  /// Replaces the run's post-mortem note (see RunResult::flight_note).
  /// Cheap enough to call every supervision cycle; the harness keeps the
  /// latest note where the hang supervisor can snapshot it.
  void set_flight_note(std::string note) const {
    if (flight_note_) flight_note_(std::move(note));
  }

 private:
  const RunSpec& spec_;
  const std::atomic<bool>& cancel_;
  FlightNoteFn flight_note_;
};

}  // namespace easis::harness
