// Reusable campaign scenarios for the harness-ported benches.
//
// The network fault-injection world (E2E-protected vehicle network, four
// detection layers) is shared between exp_network_coverage — which sweeps
// it for coverage — and bench_campaign_throughput — which uses it as a
// realistic per-run workload for the serial-vs-parallel speedup
// measurement. One run is one fresh world; nothing is shared across runs,
// which is what lets the harness shard them freely.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness/run_spec.hpp"
#include "policy/policy.hpp"

namespace easis::bench {

/// The five network fault classes, in campaign order.
[[nodiscard]] const std::vector<std::string>& network_fault_classes();

/// Each family's detector list (this one and the k*Detectors below): a
/// run's recorder declares them, the campaign's shape check reads them.
inline const std::vector<std::string> kNetworkDetectors = {
    "e2e_check", "cmu_report", "signal_qualifier", "node_supervisor"};

/// Executes one randomized network-fault injection run: builds a fresh
/// vehicle-network world, injects `fault_class` at t=2s parameterized by
/// an RNG seeded with `seed`, simulates until `run_until_us`, and returns
/// the run's coverage contribution (fault class x four detectors).
[[nodiscard]] harness::RunResult run_network_fault(
    const std::string& fault_class, std::uint64_t seed,
    std::int64_t run_until_us = 8'000'000);

/// The diagnostic readout fault classes, in campaign order: three
/// computation classes whose stored DTC the post-run readout must match,
/// and three diag-layer classes that must degrade into an explicit flag.
[[nodiscard]] const std::vector<std::string>& diag_fault_classes();

inline const std::vector<std::string> kDiagDetectors = {"diag_readout"};

/// Executes one diagnostic-readout run: builds a central node with fault
/// memory plus a UDS-lite server and workshop tester on a diagnostic CAN,
/// injects `fault_class` (computation fault at t=1s, or a diag-layer fault
/// covering the readout window), performs a full readout at t=3s
/// (TesterPresent, DTC count, DTC list, freeze frame), and cross-checks
/// the read-out fault memory against the injected class. The run's verdict
/// row and its diagnosis-accuracy coverage cell go into the result.
[[nodiscard]] harness::RunResult run_diag_readout(
    const std::string& fault_class, std::uint64_t seed);

/// Header of the per-run verdict rows run_diag_readout() produces.
[[nodiscard]] const std::string& diag_readout_csv_header();

/// The six resource-exhaustion fault classes, in campaign order: two
/// memory classes (steady leak, burst allocation), handle/descriptor
/// exhaustion, a queue flood, and two CPU-load classes (instant hog,
/// creeping load).
[[nodiscard]] const std::vector<std::string>& resource_fault_classes();

inline const std::vector<std::string> kResourceDetectors = {
    "rsu_report", "task_state", "treatment", "diag_readout"};

/// Executes one resource-exhaustion run: builds a central node whose
/// kernel budgets, handle pool and bounded lane queue are supervised by
/// the Resource Supervision Unit, injects `fault_class` at t=2s
/// parameterized by `seed`, lets the FMF treat the fault (restart with
/// pool reclaim, or load shedding for the CPU classes), and reads the
/// resource DTC back over UDS-lite at t=6s. Four detectors contribute
/// coverage: rsu_report, task_state, treatment, diag_readout. When `ctx`
/// is given, the run publishes its per-task resource snapshot as the
/// flight note every 100 ms (the post-mortem artifact of quarantined
/// runs).
[[nodiscard]] harness::RunResult run_resource_fault(
    const std::string& fault_class, std::uint64_t seed,
    const harness::RunContext* ctx = nullptr);

/// Header of the per-run verdict rows run_resource_fault() produces.
[[nodiscard]] const std::string& resource_fault_csv_header();

/// The eight environmental fault classes, in campaign order: two thermal
/// ladder classes (gradual ramp into derate, runaway into controlled
/// shutdown), two sensor classes (stuck-at, implausible offset), three
/// filesystem/NVM classes (journal fill, write-error burst, erase-cycle
/// wear-out) and the supervised-process deadline-transgression class.
[[nodiscard]] const std::vector<std::string>& environment_fault_classes();

inline const std::vector<std::string> kEnvironmentDetectors = {
    "env_report", "fault_memory", "treatment", "diag_readout"};

/// Executes one environmental run: builds a central node whose thermal
/// model and NVM fault memory are supervised by the Environment
/// Supervision Unit (plus one instrumented process section), injects
/// `fault_class` at t=2s parameterized by `seed`, lets the graceful
/// ladder / FMF treat it (derate with QM parking, persistent safe state,
/// evict-by-priority, degradation, restart), and reads the DTC plus the
/// class's environment identifier back over UDS-lite at t=6s. Four
/// detectors contribute coverage: env_report, fault_memory, treatment,
/// diag_readout. When `ctx` is given, the run publishes the ESU snapshot
/// as the flight note every 100 ms.
[[nodiscard]] harness::RunResult run_environment_fault(
    const std::string& fault_class, std::uint64_t seed,
    const harness::RunContext* ctx = nullptr);

/// Header of the per-run verdict rows run_environment_fault() produces.
[[nodiscard]] const std::string& environment_fault_csv_header();

/// The six mode-aware fault classes of the duty-cycled sensor node, in
/// campaign order: stuck-in-sleep (dead wake timer), sleep refusal,
/// wake-storm overrun, heartbeat-during-silence (rogue wake interrupt),
/// mode-transition hang and flash-write overrun.
[[nodiscard]] const std::vector<std::string>& mode_fault_classes();

inline const std::vector<std::string> kModeDetectors = {
    "mode_report", "fault_memory", "treatment", "diag_readout"};

/// The "railmon_duty" policy: the campaign's per-mode overlay set (run /
/// idle / sleep / wakeburst / flashwrite) plus a rate-bounded journal
/// check rule, on top of the baseline. Exposed so the tests can compile
/// and round-trip the exact policy the campaign runs.
[[nodiscard]] policy::PolicySet railmon_duty_policy();

/// railmon_duty_policy() after the full distribution path: serialised to
/// its canonical text and compiled back. Throws std::logic_error when the
/// compiler rejects it. The policy is a constant, so the process compiles
/// it on the first call and every mode run shares the immutable result.
[[nodiscard]] std::shared_ptr<const policy::PolicySet> railmon_duty_artifact();

/// Executes one mode-coverage run: builds a fresh RailMon sensor node
/// under the railmon_duty policy (round-tripped through the policy
/// compiler), lets it duty-cycle through a full Run -> FlashWrite ->
/// Sleep -> WakeBurst loop, injects `fault_class` at t=2s parameterized
/// by `seed`, and reads the kPowerMode DTC plus the power-mode DIDs back
/// over UDS-lite at t=6s. Four detectors contribute coverage:
/// mode_report, fault_memory, treatment, diag_readout. Every watchdog
/// error report before the injection counts as a false alarm and fails
/// the run's verdict. When `ctx` is given, the run publishes the mode /
/// overlay / journal snapshot as the flight note every 100 ms.
[[nodiscard]] harness::RunResult run_mode_fault(
    const std::string& fault_class, std::uint64_t seed,
    const harness::RunContext* ctx = nullptr);

/// Header of the per-run verdict rows run_mode_fault() produces.
[[nodiscard]] const std::string& mode_fault_csv_header();

}  // namespace easis::bench
