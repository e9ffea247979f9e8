// Mode-coverage campaign scenario (exp_mode_coverage).
//
// One run = one fresh duty-cycled RailMon sensor node (Run -> FlashWrite
// -> Sleep -> WakeBurst -> Run, cycle ~1.4 s) supervised through the
// "railmon_duty" policy's per-mode overlays:
//
//   [mode.run]        - nominal hypotheses, one arrival of slack
//   [mode.idle]       - relaxed HBM (x2), one missed heartbeat forgiven
//   [mode.sleep]      - aliveness DISARMED (silence by contract), the
//                       arrival check inverted into a silence guard
//                       (one in-flight straggler forgiven), checks off,
//                       max dwell 800 ms
//   [mode.wakeburst]  - wake-storm arrival budget (+30), max dwell 400 ms
//   [mode.flashwrite] - checks suspended while the flash is busy,
//                       max dwell 300 ms
//
// Six mode-aware fault classes attack the duty cycle; four detectors
// watch, each one layer of the chain: the ModeSupervisionUnit's
// kPowerMode error reports, the DTC stored by the FMF, the treatment
// (restart / reset / safe state), and the post-run UDS-lite readout of
// the DTC plus the power-mode identifiers (DID 0x010F / 0x0110).
//
// The first 2 s before injection cover a full duty cycle *including* a
// deep-sleep window; every watchdog error report inside that window is a
// false alarm and fails the run — the acceptance criterion that
// legitimate contractual silence never alarms.
#include "campaign_scenarios.hpp"

#include <memory>
#include <optional>
#include <stdexcept>

#include "diag/protocol.hpp"
#include "fmf/fmf.hpp"
#include "inject/campaign.hpp"
#include "inject/injector.hpp"
#include "inject/mode_faults.hpp"
#include "policy/compiler.hpp"
#include "policy/policy.hpp"
#include "scenario_kit.hpp"
#include "sim/engine.hpp"
#include "util/random.hpp"
#include "util/text.hpp"
#include "validator/railmon_node.hpp"

namespace easis::bench {

namespace {

/// One mode-aware class: its injection, held for the run's `hold` and
/// parameterized by the run's RNG.
struct ModeFaultClass {
  const char* name;
  inject::Injection (*inject)(sim::Engine&, validator::RailMonNode&,
                              util::Rng&, sim::SimTime at,
                              sim::Duration hold);
};

constexpr ModeFaultClass kModeClasses[] = {
    {"stuck_in_sleep", [](auto&, auto& node, auto&, auto at, auto hold) {
       return inject::make_stuck_in_sleep(
           [&node](bool on) { node.railmon().set_wake_suppressed(on); }, at,
           hold);
     }},
    {"sleep_refusal", [](auto&, auto& node, auto&, auto at, auto hold) {
       return inject::make_sleep_refusal(node.mode_manager(), at, hold);
     }},
    {"wake_storm_overrun", [](auto&, auto& node, auto&, auto at, auto hold) {
       return inject::make_wake_storm_overrun(
           [&node](bool on) { node.railmon().set_burst_stuck(on); }, at,
           hold);
     }},
    {"heartbeat_during_silence",
     [](auto& engine, auto& node, auto& rng, auto at, auto hold) {
       return inject::make_rogue_wake_heartbeat(
           engine, node.kernel(), node.mode_manager(), node.sensor_task(),
           sim::Duration::millis(rng.uniform_int(8, 12)), at, hold);
     }},
    {"mode_transition_hang", [](auto&, auto& node, auto&, auto at, auto hold) {
       return inject::make_mode_transition_hang(node.mode_manager(), at, hold);
     }},
    {"flash_write_overrun", [](auto&, auto& node, auto&, auto at, auto hold) {
       return inject::make_flash_write_overrun(
           [&node](bool on) { node.railmon().set_flash_stuck(on); }, at,
           hold);
     }},
};

}  // namespace

const std::vector<std::string>& mode_fault_classes() {
  static const auto kClasses = class_names(kModeClasses);
  return kClasses;
}

const std::string& mode_fault_csv_header() {
  static const std::string kHeader =
      "fault_class,mode_errors,rebinds,transitions,refusals,false_alarms,"
      "treatment,dtc_found,mode_did,overlay_did,samples,uplinked,accurate";
  return kHeader;
}

policy::PolicySet railmon_duty_policy() {
  policy::PolicySet policy = policy::baseline();
  policy.id = "railmon_duty";
  policy.version = 2;

  policy::CheckRule journal;
  journal.name = "journal_growth";
  journal.signal = "railmon.journal_depth";
  journal.max = 1.0e6;
  // Rate-of-change predicate: the journal may fill at the burst rate
  // (500 samples/s) but a runaway fill faster than 2000/s means the
  // drain side is gone. The drop at every flash commit is a legitimate
  // large negative slope, so only the upper bound is meaningful.
  journal.rate_bounded = true;
  journal.rate_max_per_s = 2000.0;
  policy.checks.push_back(journal);

  policy::ModeOverlay run;
  run.mode = "run";
  run.arrival_tolerance = 1;
  run.transition_deadline = sim::Duration::millis(20);
  policy.modes.push_back(run);

  policy::ModeOverlay idle;
  idle.mode = "idle";
  idle.hbm_scale = 2.0;
  idle.aliveness_tolerance = 1;
  idle.transition_deadline = sim::Duration::millis(20);
  policy.modes.push_back(idle);

  policy::ModeOverlay sleep;
  sleep.mode = "sleep";
  sleep.aliveness_armed = false;
  // The sensing alarm is re-armed at commit times (+2 ms phase) while
  // the controller runs on 10 ms multiples: one in-flight activation may
  // legitimately drain *into* the contracted silence. One straggler per
  // window is forgiven; a rogue wake interrupt produces several.
  sleep.silent_max_arrivals = 1;
  sleep.checks_enabled = false;
  sleep.max_dwell = sim::Duration::millis(800);
  sleep.transition_deadline = sim::Duration::millis(20);
  policy.modes.push_back(sleep);

  policy::ModeOverlay burst;
  burst.mode = "wakeburst";
  burst.arrival_tolerance = 30;
  burst.max_dwell = sim::Duration::millis(400);
  burst.transition_deadline = sim::Duration::millis(20);
  policy.modes.push_back(burst);

  policy::ModeOverlay flash;
  flash.mode = "flashwrite";
  flash.checks_enabled = false;
  flash.max_dwell = sim::Duration::millis(300);
  flash.transition_deadline = sim::Duration::millis(20);
  policy.modes.push_back(flash);
  return policy;
}

std::shared_ptr<const policy::PolicySet> railmon_duty_artifact() {
  // A run only proceeds on the policy the compiler accepted — the same
  // artifact a real node would flash.
  static const std::shared_ptr<const policy::PolicySet> kArtifact = [] {
    const policy::CompileResult compiled =
        policy::compile_policy(policy::to_text(railmon_duty_policy()));
    if (!compiled.ok()) {
      throw std::logic_error("railmon_duty policy failed to compile:\n" +
                             compiled.format());
    }
    return std::make_shared<const policy::PolicySet>(*compiled.policy);
  }();
  return kArtifact;
}

harness::RunResult run_mode_fault(const std::string& fault_class,
                                  std::uint64_t seed,
                                  const harness::RunContext* ctx) {
  const ModeFaultClass& row = find_class(kModeClasses, fault_class, "mode");
  util::Rng rng(seed);

  sim::Engine engine;
  validator::RailMonNodeConfig config;
  config.policy = railmon_duty_artifact();
  config.watchdog = config.policy->detection.watchdog;
  validator::RailMonNode node(engine, config);

  // --- detectors --------------------------------------------------------------
  inject::DetectionRecorder recorder(kModeDetectors);

  const sim::SimTime inject_at(kInjectAtUs);
  std::uint64_t false_alarms = 0;
  node.watchdog().add_error_listener([&](const wdg::ErrorReport& report) {
    if (engine.now() < inject_at) {
      // ANY report before the injection is a false alarm: the window
      // covers a full duty cycle including a legitimate deep-sleep
      // silence, a flash window and a wake storm.
      ++false_alarms;
      return;
    }
    if (report.type == wdg::ErrorType::kPowerMode) {
      recorder.record("mode_report", report.time);
    }
  });

  const ApplicationId railmon_app = node.railmon().application();
  engine.every(sim::Duration::millis(10), [&] {
    if (node.dtc_store() != nullptr &&
        node.dtc_store()->entry({railmon_app, wdg::ErrorType::kPowerMode}) !=
            nullptr) {
      recorder.record("fault_memory", engine.now());
    }
    if (node.rte().restart_count(railmon_app) > 0 || node.resets_performed() > 0 ||
        node.in_safe_state()) {
      recorder.record("treatment", engine.now());
    }
  });

  // The run's post-mortem note: mode, dwell, overlay and journal state.
  publish_flight_note(engine, ctx, [&engine, &node] {
    return util::concat(
        "mode=", mode::to_string(node.mode_manager().current()),
        " dwell_us=", node.mode_manager().dwell(engine.now()).as_micros(),
        " overlay=", node.mode_unit().active_overlay_hash24(),
        " mode_errors=", node.mode_unit().errors_reported(),
        " journal=", node.railmon().journal_depth(),
        " uplinked=", node.railmon().uplinked());
  });

  // --- injection --------------------------------------------------------------
  inject::ErrorInjector injector(engine);
  const sim::Duration fault_hold =
      sim::Duration::millis(rng.uniform_int(2500, 3500));
  injector.add(row.inject(engine, node, rng, inject_at, fault_hold));
  injector.arm();
  recorder.mark_injection(inject_at);

  // --- post-run UDS-lite readout ----------------------------------------------
  Workshop workshop(engine, node);
  bool dtc_found = false;
  bool mode_did_ok = false;
  bool overlay_did_ok = false;
  engine.schedule_at(sim::SimTime(kReadoutAtUs), [&] {
    workshop.read_dtc(wdg::ErrorType::kPowerMode, railmon_app,
                      [&](const diag::DtcRecord&) {
                        dtc_found = true;
                        recorder.record("diag_readout", engine.now());
                      });
    // The mode identifiers must agree with the node's live state at the
    // moment of the read (the fault may have pinned any mode).
    workshop.tester.read_data(
        diag::kDidPowerMode,
        [&](const std::optional<diag::Response>& response) {
          if (!response || !response->positive) return;
          const auto value = diag::get_f32(response->data, 2);
          mode_did_ok = value.has_value() &&
                        static_cast<std::uint8_t>(*value) ==
                            static_cast<std::uint8_t>(
                                node.mode_manager().current());
        });
    workshop.tester.read_data(
        diag::kDidModeOverlayHash,
        [&](const std::optional<diag::Response>& response) {
          if (!response || !response->positive) return;
          const auto value = diag::get_f32(response->data, 2);
          overlay_did_ok =
              value.has_value() &&
              static_cast<std::uint32_t>(*value) ==
                  node.mode_unit().active_overlay_hash24();
        });
  });

  node.start();
  engine.run_until(sim::SimTime(kRunUntilUs));

  // --- reduction --------------------------------------------------------------
  harness::RunResult result;
  result.coverage.add_run(fault_class, recorder);

  const bool accurate = recorder.detected("mode_report") && dtc_found &&
                        false_alarms == 0;
  result.rows.push_back(
      {fault_class, std::to_string(node.mode_unit().errors_reported()),
       std::to_string(node.mode_unit().rebinds()),
       std::to_string(node.mode_manager().transitions()),
       std::to_string(node.mode_manager().refusals()),
       std::to_string(false_alarms),
       recorder.detected("treatment") ? "1" : "0", dtc_found ? "1" : "0",
       mode_did_ok ? "1" : "0", overlay_did_ok ? "1" : "0",
       std::to_string(node.railmon().samples_taken()),
       std::to_string(node.railmon().uplinked()), accurate ? "1" : "0"});
  if (!accurate) {
    result.misdetect =
        "mode fault '" + fault_class + "' not detected end-to-end (" +
        "mode_report=" + (recorder.detected("mode_report") ? "1" : "0") +
        ", dtc_found=" + (dtc_found ? "1" : "0") +
        ", false_alarms=" + std::to_string(false_alarms) + ")";
  }
  return result;
}

}  // namespace easis::bench
