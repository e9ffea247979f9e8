// Tests for the power-mode subsystem: the declared two-phase mode
// machine, per-mode supervision binding through policy overlays (silence
// contract, wake-storm budget, checks gating), the duty-cycled RailMon
// node's alarm-free steady state, and the mode-transition edge cases —
// transition hang during an active injection, reset while asleep with
// the NVM mode re-seed, and a runtime PolicySet switch mid-HBM-window.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bus/can.hpp"
#include "diag/protocol.hpp"
#include "diag/tester.hpp"
#include "mode/power_mode.hpp"
#include "mode/supervision.hpp"
#include "policy/policy.hpp"
#include "rte/signal_bus.hpp"
#include "sim/engine.hpp"
#include "telemetry/event_bus.hpp"
#include "util/trace.hpp"
#include "validator/controldesk.hpp"
#include "validator/railmon_node.hpp"

namespace easis::mode {
namespace {

using sim::Duration;
using sim::SimTime;

// --- the mode machine --------------------------------------------------------

struct MachineFixture {
  sim::Engine engine;
  rte::SignalBus bus;
  PowerModeManager manager;

  MachineFixture() : manager(engine, bus) {
    manager.allow(PowerMode::kRun, PowerMode::kSleep);
    manager.allow(PowerMode::kSleep, PowerMode::kRun);
  }
};

TEST(PowerModeMachine, UndeclaredEdgeIsRefused) {
  MachineFixture f;
  EXPECT_FALSE(f.manager.request(PowerMode::kFlashWrite, "test"));
  EXPECT_EQ(f.manager.refusals(), 1u);
  EXPECT_EQ(f.manager.current(), PowerMode::kRun);
}

TEST(PowerModeMachine, TransitionsAreTwoPhase) {
  MachineFixture f;
  std::optional<ModeTransition> seen;
  f.manager.add_listener(
      [&](const ModeTransition& transition) { seen = transition; });

  EXPECT_TRUE(f.manager.request(PowerMode::kSleep, "nightfall"));
  // Granted but not yet committed: the machine is still in Run, and a
  // second request is refused while the first is in flight.
  EXPECT_EQ(f.manager.current(), PowerMode::kRun);
  EXPECT_TRUE(f.manager.transition_pending());
  EXPECT_EQ(f.manager.pending_target(), PowerMode::kSleep);
  EXPECT_FALSE(f.manager.request(PowerMode::kSleep, "again"));

  f.engine.run_until(SimTime(10'000));
  EXPECT_EQ(f.manager.current(), PowerMode::kSleep);
  EXPECT_FALSE(f.manager.transition_pending());
  EXPECT_EQ(f.manager.transitions(), 1u);
  EXPECT_EQ(f.manager.last_cause(), "nightfall");
  ASSERT_TRUE(seen.has_value());
  EXPECT_EQ(seen->from, PowerMode::kRun);
  EXPECT_EQ(seen->to, PowerMode::kSleep);
  // The committed mode is announced on the bus as its enum index.
  EXPECT_EQ(f.bus.read_or("mode.power", 99.0),
            static_cast<double>(PowerMode::kSleep));
}

TEST(PowerModeMachine, GuardVetoCountsConsecutiveRefusals) {
  MachineFixture f;
  bool veto = true;
  f.manager.add_guard([&veto](PowerMode, PowerMode, std::string& reason) {
    if (veto) reason = "flash busy";
    return !veto;
  });

  EXPECT_FALSE(f.manager.request(PowerMode::kSleep, "t1"));
  EXPECT_FALSE(f.manager.request(PowerMode::kSleep, "t2"));
  EXPECT_EQ(f.manager.consecutive_refusals(), 2u);

  veto = false;
  EXPECT_TRUE(f.manager.request(PowerMode::kSleep, "t3"));
  f.engine.run_until(SimTime(10'000));
  // A commit clears the consecutive counter (the cumulative one stays).
  EXPECT_EQ(f.manager.consecutive_refusals(), 0u);
  EXPECT_EQ(f.manager.refusals(), 2u);
}

TEST(PowerModeMachine, ReseedInvalidatesTheInFlightCommit) {
  MachineFixture f;
  EXPECT_TRUE(f.manager.request(PowerMode::kSleep, "nightfall"));
  f.manager.reseed(PowerMode::kRun, f.engine.now());
  EXPECT_FALSE(f.manager.transition_pending());
  // The stale commit event fires but must not flip the mode.
  f.engine.run_until(SimTime(10'000));
  EXPECT_EQ(f.manager.current(), PowerMode::kRun);
  EXPECT_EQ(f.manager.transitions(), 0u);
  EXPECT_EQ(f.manager.last_cause(), "nvm_reseed");
}

TEST(PowerModeMachine, InjectedHangKeepsTheTransitionPending) {
  MachineFixture f;
  f.manager.set_transition_hang(true);
  EXPECT_TRUE(f.manager.request(PowerMode::kSleep, "nightfall"));
  f.engine.run_until(SimTime(50'000));
  EXPECT_TRUE(f.manager.transition_pending());
  EXPECT_EQ(f.manager.current(), PowerMode::kRun);
  EXPECT_EQ(f.manager.transitions(), 0u);
}

// --- the duty-cycled node ----------------------------------------------------

/// The test policy: same shape as the campaign's railmon_duty overlays.
std::shared_ptr<const policy::PolicySet> duty_policy() {
  auto policy = std::make_shared<policy::PolicySet>(policy::baseline());
  policy->id = "duty_test";

  policy::ModeOverlay run;
  run.mode = "run";
  run.arrival_tolerance = 1;
  run.transition_deadline = Duration::millis(20);
  policy->modes.push_back(run);

  policy::ModeOverlay sleep;
  sleep.mode = "sleep";
  sleep.aliveness_armed = false;
  sleep.silent_max_arrivals = 1;
  sleep.checks_enabled = false;
  sleep.max_dwell = Duration::millis(800);
  sleep.transition_deadline = Duration::millis(20);
  policy->modes.push_back(sleep);

  policy::ModeOverlay burst;
  burst.mode = "wakeburst";
  burst.arrival_tolerance = 30;
  burst.max_dwell = Duration::millis(400);
  burst.transition_deadline = Duration::millis(20);
  policy->modes.push_back(burst);

  policy::ModeOverlay flash;
  flash.mode = "flashwrite";
  flash.checks_enabled = false;
  flash.max_dwell = Duration::millis(300);
  flash.transition_deadline = Duration::millis(20);
  policy->modes.push_back(flash);
  return policy;
}

struct NodeFixture {
  sim::Engine engine;
  std::unique_ptr<validator::RailMonNode> node;
  std::uint64_t errors = 0;
  std::uint64_t mode_errors = 0;

  NodeFixture() {
    validator::RailMonNodeConfig config;
    config.policy = duty_policy();
    node = std::make_unique<validator::RailMonNode>(engine, config);
    node->watchdog().add_error_listener([this](const wdg::ErrorReport& e) {
      ++errors;
      if (e.type == wdg::ErrorType::kPowerMode) ++mode_errors;
    });
  }
};

TEST(RailMonNode, DutyCycleIsAlarmFree) {
  NodeFixture f;
  f.node->start();
  // Two full duty cycles (~1.4 s each): deep-sleep silences, wake storms
  // and flash windows are all contractual — zero error reports.
  f.engine.run_until(SimTime(3'000'000));
  EXPECT_EQ(f.errors, 0u);
  EXPECT_GE(f.node->mode_manager().transitions(), 8u);
  EXPECT_GT(f.node->mode_unit().rebinds(), 8u);
  EXPECT_GT(f.node->railmon().samples_taken(), 0u);
  EXPECT_GT(f.node->railmon().uplinked(), 0u);
  EXPECT_EQ(f.node->resets_performed(), 0u);
}

TEST(RailMonNode, RogueHeartbeatDuringSleepViolatesTheSilenceContract) {
  NodeFixture f;
  // A spurious wake interrupt: activate the sensing task every 5 ms, but
  // only while the machine is asleep (harmless when awake).
  std::function<void()> rogue = [&] {
    if (f.node->mode_manager().current() == PowerMode::kSleep) {
      (void)f.node->kernel().activate_task(f.node->sensor_task());
    }
    f.engine.schedule_in(Duration::millis(5), rogue);
  };
  f.engine.schedule_in(Duration::millis(5), rogue);

  f.node->start();
  f.engine.run_until(SimTime(3'000'000));
  EXPECT_GT(f.mode_errors, 0u);
  EXPECT_GT(f.node->mode_unit().errors_reported(), 0u);
  ASSERT_NE(f.node->dtc_store(), nullptr);
  EXPECT_NE(f.node->dtc_store()->entry({f.node->railmon().application(),
                                        wdg::ErrorType::kPowerMode}),
            nullptr);
}

TEST(RailMonNode, StuckInSleepOverstaysTheDwellContract) {
  NodeFixture f;
  // Dead wake timer from the start: the first Sleep window never ends.
  f.node->railmon().set_wake_suppressed(true);
  f.node->start();
  f.engine.run_until(SimTime(3'000'000));
  EXPECT_GT(f.mode_errors, 0u);
  ASSERT_NE(f.node->dtc_store(), nullptr);
  EXPECT_NE(f.node->dtc_store()->entry({f.node->railmon().application(),
                                        wdg::ErrorType::kPowerMode}),
            nullptr);
}

TEST(RailMonNode, ResetWhileAsleepReseedsTheSleepMode) {
  NodeFixture f;
  f.node->start();

  // Reset mid-sleep (first sleep window is ~0.61 s .. 1.21 s).
  bool reset_done = false;
  std::function<void()> trigger = [&] {
    if (!reset_done &&
        f.node->mode_manager().current() == PowerMode::kSleep &&
        !f.node->mode_manager().transition_pending()) {
      reset_done = true;
      f.node->software_reset();
      return;
    }
    if (!reset_done) f.engine.schedule_in(Duration::millis(10), trigger);
  };
  f.engine.schedule_in(Duration::millis(700), trigger);

  f.engine.run_until(SimTime(1'000'000));
  ASSERT_TRUE(reset_done);
  EXPECT_EQ(f.node->resets_performed(), 1u);
  // The NVM-persisted mode was re-seeded: the node woke up *in* Sleep
  // with the silence contract re-armed, not in Run.
  EXPECT_EQ(f.node->mode_manager().current(), PowerMode::kSleep);
  EXPECT_TRUE(f.node->mode_unit().silence_contracted());

  // The resumed sleep window plays out and the duty cycle continues —
  // with zero false alarms (contractual silence survived the reboot).
  f.engine.run_until(SimTime(3'000'000));
  EXPECT_EQ(f.errors, 0u);
  EXPECT_NE(f.node->mode_manager().current(), PowerMode::kSleep);
}

TEST(RailMonNode, PolicySwitchMidWindowRaisesNoFalseAlarm) {
  NodeFixture f;
  auto relaxed = std::make_shared<policy::PolicySet>(*duty_policy());
  relaxed->id = "duty_relaxed";
  relaxed->version = 3;
  for (policy::ModeOverlay& overlay : relaxed->modes) {
    if (overlay.mode == "run") overlay.arrival_tolerance = 2;
  }

  std::uint32_t hash_before = 0;
  f.engine.schedule_at(SimTime(155'000), [&] {
    // Mid Run mode, mid HBM window: the rebind must start fresh periods
    // instead of judging half-old half-new counters.
    hash_before = f.node->mode_unit().active_overlay_hash24();
    f.node->mode_unit().set_policy(relaxed, f.engine.now());
  });

  f.node->start();
  f.engine.run_until(SimTime(3'000'000));
  EXPECT_EQ(f.errors, 0u);
  EXPECT_NE(hash_before, 0u);
  // The run overlay changed content, so its activation hash moved.
  const policy::ModeOverlay* run_overlay =
      policy::find_mode(*relaxed, "run");
  ASSERT_NE(run_overlay, nullptr);
  EXPECT_NE(policy::overlay_hash24(*run_overlay), hash_before);
  EXPECT_GT(f.node->railmon().uplinked(), 0u);
}

TEST(RailMonNode, HungTransitionDuringInjectionIsFlaggedAndTreated) {
  NodeFixture f;
  // The injection window covers an attempted transition: the grant is
  // swallowed, the supervision unit flags the overdue in-flight
  // transition and the FMF escalates until a reset re-seeds the machine.
  f.engine.schedule_at(SimTime(400'000), [&] {
    f.node->mode_manager().set_transition_hang(true);
  });
  f.engine.schedule_at(SimTime(2'000'000), [&] {
    f.node->mode_manager().set_transition_hang(false);
  });

  f.node->start();
  f.engine.run_until(SimTime(1'500'000));
  EXPECT_GT(f.mode_errors, 0u);
  f.engine.run_until(SimTime(5'000'000));
  EXPECT_GE(f.node->resets_performed(), 1u);
  // After the injection lifted, the machine is either duty-cycling again
  // (the reset re-seed cleared the in-flight commit) or parked — but it
  // is never left hung in-flight while the FMF still had treatment left.
  // A legitimately in-flight commit lands within the 2 ms transition
  // latency; only a stuck one has been pending for longer.
  const bool stuck =
      f.node->mode_manager().transition_pending() &&
      (f.engine.now() - f.node->mode_manager().pending_since()) >
          Duration::millis(50);
  if (stuck) {
    EXPECT_TRUE(f.node->in_safe_state() ||
                f.node->resets_performed() >= f.node->config().fmf.max_ecu_resets);
  }
}

TEST(RailMonNode, SleepRefusalIsReportedPastTheLimit) {
  NodeFixture f;
  f.engine.schedule_at(SimTime(400'000), [&] {
    f.node->mode_manager().set_refuse_all(true);
  });
  f.node->start();
  f.engine.run_until(SimTime(2'000'000));
  EXPECT_GT(f.node->mode_manager().refusals(), 3u);
  EXPECT_GT(f.mode_errors, 0u);
}

TEST(RailMonNode, PowerModeDidsReportTheLiveMode) {
  NodeFixture f;
  bus::CanBus can(f.engine);
  f.node->attach_diag(can);
  diag::DiagTester tester(f.engine, can, diag::DiagTesterConfig{});

  std::optional<double> mode_did;
  std::optional<double> overlay_did;
  // t=1s is mid-sleep (0.61 s .. 1.21 s): a long, stable window, so the
  // response races no mode commit.
  f.engine.schedule_at(SimTime(1'000'000), [&] {
    tester.read_data(diag::kDidPowerMode,
                     [&](const std::optional<diag::Response>& response) {
                       ASSERT_TRUE(response && response->positive);
                       mode_did = diag::get_f32(response->data, 2);
                     });
    tester.read_data(diag::kDidModeOverlayHash,
                     [&](const std::optional<diag::Response>& response) {
                       ASSERT_TRUE(response && response->positive);
                       overlay_did = diag::get_f32(response->data, 2);
                     });
  });

  f.node->start();
  f.engine.run_until(SimTime(1'200'000));
  ASSERT_TRUE(mode_did.has_value());
  EXPECT_EQ(static_cast<std::uint8_t>(*mode_did),
            static_cast<std::uint8_t>(PowerMode::kSleep));
  ASSERT_TRUE(overlay_did.has_value());
  EXPECT_EQ(static_cast<std::uint32_t>(*overlay_did),
            f.node->mode_unit().active_overlay_hash24());
  EXPECT_NE(static_cast<std::uint32_t>(*overlay_did), 0u);
  EXPECT_EQ(f.errors, 0u);
}

// --- report detail text -----------------------------------------------------
//
// Each kind of ModeSupervisionUnit report, exactly as the fault memory and
// the exported event logs carry it.

/// The first kPowerMode report a scenario raises, and every mode-unit
/// event it emits.
struct DetailFixture : NodeFixture {
  telemetry::EventBus bus;
  std::optional<telemetry::EventScope> scope;
  std::vector<telemetry::Event> events;
  std::string first_detail;

  DetailFixture() {
    bus.add_sink([this](const telemetry::Event& event) {
      if (event.component == telemetry::Component::kModeUnit) {
        events.push_back(event);
      }
    });
    scope.emplace(bus);
    node->watchdog().add_error_listener([this](const wdg::ErrorReport& e) {
      if (e.type == wdg::ErrorType::kPowerMode && first_detail.empty()) {
        first_detail = e.detail;
      }
    });
  }
};

TEST(ModeReportDetail, Overstay) {
  DetailFixture f;
  f.node->railmon().set_wake_suppressed(true);
  f.node->start();
  f.engine.run_until(SimTime(3'000'000));
  EXPECT_EQ(f.first_detail, "mode sleep overstayed: dwell 807ms > max 800ms");
}

TEST(ModeReportDetail, HungTransition) {
  DetailFixture f;
  f.engine.schedule_at(SimTime(400'000), [&] {
    f.node->mode_manager().set_transition_hang(true);
  });
  f.node->start();
  f.engine.run_until(SimTime(1'500'000));
  EXPECT_EQ(f.first_detail,
            "transition run->flashwrite hung for 29ms (deadline 20ms)");
}

TEST(ModeReportDetail, Refusals) {
  DetailFixture f;
  f.engine.schedule_at(SimTime(400'000), [&] {
    f.node->mode_manager().set_refuse_all(true);
  });
  f.node->start();
  f.engine.run_until(SimTime(2'000'000));
  EXPECT_EQ(f.first_detail,
            "3 consecutive refused transitions in mode run (limit 3)");
}

TEST(ModeReportDetail, HeartbeatDuringSilence) {
  DetailFixture f;
  std::function<void()> rogue = [&] {
    if (f.node->mode_manager().current() == PowerMode::kSleep) {
      (void)f.node->kernel().activate_task(f.node->sensor_task());
    }
    f.engine.schedule_in(Duration::millis(5), rogue);
  };
  f.engine.schedule_in(Duration::millis(5), rogue);
  f.node->start();
  f.engine.run_until(SimTime(3'000'000));
  EXPECT_EQ(f.first_detail,
            "heartbeat during contracted silence (mode sleep, runnable 1)");
}

TEST(ModeReportDetail, OverlayApplied) {
  DetailFixture f;
  f.node->start();
  f.engine.run_until(SimTime(1'500'000));
  std::vector<std::string> applied;
  for (const telemetry::Event& event : f.events) {
    if (event.kind == telemetry::EventKind::kModeOverlayApplied) {
      applied.push_back(event.detail);
    }
  }
  // The run overlay was applied at construction, before the scope.
  const std::vector<std::string> expected = {
      "flashwrite overlay=5988333 armed", "sleep overlay=14090755 silence",
      "wakeburst overlay=16489000 armed", "run overlay=5622510 armed"};
  EXPECT_EQ(applied, expected);
}

TEST(ControlDesk, WatchPowerModeSamplesTheModeProbes) {
  NodeFixture f;
  util::TraceRecorder recorder;
  validator::ControlDesk desk(f.engine, recorder);
  desk.watch_power_mode(f.node->mode_manager(), "railmon",
                        &f.node->mode_unit());

  f.node->start();
  desk.start(Duration::millis(1500));
  f.engine.run_until(SimTime(1'600'000));

  for (const char* signal :
       {"railmon.mode", "railmon.dwell_ms", "railmon.cause",
        "railmon.transitions", "railmon.refusals", "railmon.overlay",
        "railmon.silence", "railmon.mode_errors"}) {
    EXPECT_TRUE(recorder.has_signal(signal)) << signal;
  }
  // The duty cycle visits Sleep inside the sampled window: the silence
  // probe must have seen both contract states.
  const util::TraceSignal& silence = recorder.signal("railmon.silence");
  double lo = 1.0;
  double hi = 0.0;
  for (const auto& sample : silence.samples()) {
    lo = std::min(lo, sample.value);
    hi = std::max(hi, sample.value);
  }
  EXPECT_EQ(lo, 0.0);
  EXPECT_EQ(hi, 1.0);
}

}  // namespace
}  // namespace easis::mode
