#include "campaign_scenarios.hpp"

#include <optional>

#include "diag/protocol.hpp"
#include "inject/campaign.hpp"
#include "inject/diag_faults.hpp"
#include "inject/faults.hpp"
#include "inject/injector.hpp"
#include "inject/network_faults.hpp"
#include "profile/profiler.hpp"
#include "scenario_kit.hpp"
#include "sim/engine.hpp"
#include "util/random.hpp"
#include "validator/central_node.hpp"
#include "validator/network.hpp"
#include "validator/node_supervisor.hpp"
#include "validator/remote_node.hpp"
#include "wdg/com_monitor.hpp"

namespace easis::bench {

namespace {

/// One network fault class: its injection, parameterized by the run's RNG.
struct NetworkFaultClass {
  const char* name;
  inject::Injection (*inject)(validator::VehicleNetwork&, util::Rng&,
                              sim::SimTime);
};

constexpr NetworkFaultClass kNetworkClasses[] = {
    {"frame_corruption", [](auto& network, auto& rng, sim::SimTime at) {
       return inject::make_frame_corruption(network.can_fault_link(),
                                            rng.uniform(0.5, 1.0), at,
                                            sim::Duration::zero());
     }},
    {"loss_burst", [](auto& network, auto& rng, sim::SimTime at) {
       return inject::make_loss_burst(
           network.can_fault_link(),
           static_cast<std::uint64_t>(rng.uniform_int(5, 40)), at);
     }},
    {"babbling_idiot", [](auto& network, auto& rng, sim::SimTime at) {
       return inject::make_babbling_idiot(
           network.babbler(), at,
           sim::Duration::millis(rng.uniform_int(500, 2000)));
     }},
    {"network_partition", [](auto& network, auto& rng, sim::SimTime at) {
       return inject::make_network_partition(
           network.can_fault_link(), at,
           sim::Duration::millis(rng.uniform_int(300, 1500)));
     }},
    {"gateway_stall", [](auto& network, auto& rng, sim::SimTime at) {
       return inject::make_gateway_stall(
           network.gateway(), at,
           sim::Duration::millis(rng.uniform_int(300, 1500)));
     }},
};

}  // namespace

const std::vector<std::string>& network_fault_classes() {
  static const auto kClasses = class_names(kNetworkClasses);
  return kClasses;
}

harness::RunResult run_network_fault(const std::string& fault_class,
                                     std::uint64_t seed,
                                     std::int64_t run_until_us) {
  EASIS_PROFILE_SPAN_BEGIN(setup, "run.setup");
  const NetworkFaultClass& row =
      find_class(kNetworkClasses, fault_class, "network");

  sim::Engine engine;
  validator::CentralNodeConfig config;
  config.with_fmf = false;
  config.safespeed.max_speed_deadline = sim::Duration::millis(200);
  validator::CentralNode node(engine, config);

  validator::NetworkConfig net_config;
  net_config.e2e_protection = true;
  net_config.fault_seed = seed;
  validator::VehicleNetwork network(engine, node.signals(), net_config);

  wdg::CommunicationMonitoringUnit cmu(node.watchdog());
  const RunnableId channel{1000};
  wdg::ComChannel ch;
  ch.channel = channel;
  ch.task = node.safespeed_task();
  ch.application = node.safespeed().application();
  ch.name = "max_speed";
  ch.timeout = sim::Duration::millis(150);
  cmu.add_channel(ch, engine.now());

  inject::DetectionRecorder recorder(kNetworkDetectors);

  network.set_max_speed_check_listener(
      [&](bus::E2EStatus status, sim::SimTime now) {
        cmu.on_check_result(channel, status, now);
        if (status != bus::E2EStatus::kOk) recorder.record("e2e_check", now);
      });
  node.watchdog().add_error_listener([&](const wdg::ErrorReport& report) {
    if (report.type == wdg::ErrorType::kCommunication) {
      recorder.record("cmu_report", report.time);
    }
  });

  validator::RemoteNodeConfig remote_config;
  remote_config.name = "dynamics";
  remote_config.heartbeat_can_id = 0x700;
  validator::RemoteNode remote(engine, network.can(), remote_config);
  validator::NodeSupervisor supervisor(engine, network.can());
  supervisor.register_node("dynamics", 0x700, remote_config.heartbeat_period);
  supervisor.set_state_callback(
      [&](NodeId, validator::NodeSupervisor::NodeState state,
          sim::SimTime now) {
        if (state == validator::NodeSupervisor::NodeState::kMissing) {
          recorder.record("node_supervisor", now);
        }
      });

  // Steady traffic: a max-speed command every 50 ms, the CMU's timeout
  // cycle every 50 ms, and a 10 ms sampler of SafeSpeed's qualifier.
  engine.every(sim::Duration::millis(50),
               [&] { network.command_max_speed(120.0); });
  engine.every(sim::Duration::millis(50), [&] { cmu.cycle(engine.now()); });
  engine.every(sim::Duration::millis(10), [&] {
    if (node.safespeed().max_speed_qualifier() !=
        rte::SignalQualifier::kValid) {
      recorder.record("signal_qualifier", engine.now());
    }
  });

  util::Rng rng(seed);
  const sim::SimTime inject_at(kInjectAtUs);
  inject::ErrorInjector injector(engine);
  injector.add(row.inject(network, rng, inject_at));
  injector.arm();
  recorder.mark_injection(inject_at);

  node.start();
  network.start();
  remote.start();
  supervisor.start();
  EASIS_PROFILE_SPAN_END(setup);

  {
    EASIS_PROFILE_SPAN("run.simulate");
    engine.run_until(sim::SimTime(run_until_us));
  }

  harness::RunResult result;
  {
    EASIS_PROFILE_SPAN("run.verdict");
    result.coverage.add_run(fault_class, recorder);
  }
  return result;
}

namespace {

/// Everything the t=3s readout collects; the verdict derives from it after
/// the simulation finishes.
struct ReadoutTranscript {
  int timeouts = 0;
  int negatives = 0;
  bool service_not_supported = false;
  std::optional<diag::DtcReadout> count;
  std::optional<diag::DtcReadout> list;
  bool freeze_frame_ok = false;
  int pending = 0;
  bool done = false;
  sim::SimTime completed;
};

void note_response(ReadoutTranscript& transcript,
                   const std::optional<diag::Response>& response) {
  if (!response) {
    ++transcript.timeouts;
    return;
  }
  if (!response->positive) {
    ++transcript.negatives;
    if (response->nrc == diag::Nrc::kServiceNotSupported) {
      transcript.service_not_supported = true;
    }
  }
}

RunnableId diag_target_runnable(validator::CentralNode& node, int target) {
  switch (target % 3) {
    case 0: return node.safespeed().get_sensor_value();
    case 1: return node.safespeed().safe_cc_process();
    default: return node.safespeed().speed_process();
  }
}

constexpr std::int64_t kDiagReadoutAtUs = 3'000'000;

/// One diagnostic readout class: the computation fault under diagnosis,
/// the DTC it must read out as, and the diag-layer attack on the readout
/// (if any) with the verdict that attack must degrade into.
///
/// Each computation class uses the injection that manifests *uniquely* as
/// its error type: a dropped or repeated runnable also breaks the
/// program-flow graph, and whichever monitor fires first owns the DTC,
/// which is misclassification, not diagnosis. The three diag-layer
/// classes attack the readout of an aliveness fault's memory instead, so
/// every run has a fault to read out.
struct DiagFaultClass {
  const char* name;
  wdg::ErrorType expected_type;
  const char* expected_verdict;
  inject::Injection (*fault)(validator::CentralNode&, util::Rng&,
                             int target, sim::SimTime at,
                             sim::Duration duration);
  /// nullptr for the computation classes.
  inject::Injection (*attack)(Workshop&, util::Rng&, sim::SimTime at);
};

// The runnable keeps executing, only its heartbeat glue is suppressed.
// The target must be the *last* runnable of the job: the PFC clears its
// context at the task boundary, so a missing tail indication is invisible
// to it and the aliveness monitor alone owns the DTC.
inject::Injection aliveness_fault(validator::CentralNode& node, util::Rng&,
                                  int, sim::SimTime at,
                                  sim::Duration duration) {
  return inject::make_heartbeat_suppression(
      node.rte(), node.safespeed().speed_process(), at, duration);
}

constexpr DiagFaultClass kDiagClasses[] = {
    {"aliveness", wdg::ErrorType::kAliveness, "correct_dtc", aliveness_fault,
     nullptr},
    // Excessive dispatch: the task runs 3-6x too fast; every job still
    // executes its correct sequence, so only the arrival counters trip.
    {"arrival_rate", wdg::ErrorType::kArrivalRate, "correct_dtc",
     [](auto& node, auto& rng, int, auto at, auto duration) {
       return inject::make_period_scale(
           node.kernel(), node.safespeed_alarm(),
           node.safespeed_period_ticks(),
           1.0 / static_cast<double>(rng.uniform_int(3, 6)), at, duration);
     },
     nullptr},
    {"program_flow", wdg::ErrorType::kProgramFlow, "correct_dtc",
     [](auto& node, auto&, int target, auto at, auto duration) {
       return inject::make_invalid_branch(
           node.rte(), node.safespeed_task(),
           diag_target_runnable(node, target),
           diag_target_runnable(node, target + 2), at, duration);
     },
     nullptr},
    {"diag_request_corruption", wdg::ErrorType::kAliveness,
     "flagged_negative_response", aliveness_fault,
     [](auto& workshop, auto& rng, auto at) {
       return inject::make_diag_request_corruption(
           workshop.tester, at,
           sim::Duration::millis(rng.uniform_int(300, 600)));
     }},
    {"diag_response_drop", wdg::ErrorType::kAliveness, "readout_timeout",
     aliveness_fault,
     [](auto& workshop, auto& rng, auto at) {
       return inject::make_diag_response_drop(
           workshop.server, at,
           sim::Duration::millis(rng.uniform_int(300, 600)));
     }},
    {"diag_reset_blackout", wdg::ErrorType::kAliveness, "readout_timeout",
     aliveness_fault,
     [](auto& workshop, auto& rng, auto at) {
       return inject::make_diag_blackout(
           workshop.server, at,
           sim::Duration::millis(rng.uniform_int(60, 200)));
     }},
};

}  // namespace

const std::vector<std::string>& diag_fault_classes() {
  static const auto kClasses = class_names(kDiagClasses);
  return kClasses;
}

const std::string& diag_readout_csv_header() {
  static const std::string kHeader =
      "fault_class,expected,verdict,dtc_total,dtc_active,freeze_frame,"
      "timeouts,negative_responses,accurate";
  return kHeader;
}

harness::RunResult run_diag_readout(const std::string& fault_class,
                                    std::uint64_t seed) {
  EASIS_PROFILE_SPAN_BEGIN(setup, "run.setup");
  const DiagFaultClass& row = find_class(kDiagClasses, fault_class, "diag");
  util::Rng rng(seed);

  sim::Engine engine;
  validator::CentralNodeConfig config;
  config.dtc_capacity = 8;
  config.reboot_delay = sim::Duration::millis(50);
  validator::CentralNode node(engine, config);
  Workshop workshop(engine, node);

  const int target = static_cast<int>(rng.uniform_int(0, 2));
  const sim::SimTime inject_at(1'000'000);
  const sim::Duration fault_duration =
      sim::Duration::millis(rng.uniform_int(200, 800));

  inject::ErrorInjector injector(engine);
  injector.add(row.fault(node, rng, target, inject_at, fault_duration));
  if (row.attack != nullptr) {
    injector.add(
        row.attack(workshop, rng, sim::SimTime(kDiagReadoutAtUs - 10'000)));
  }
  injector.arm();

  // Post-run diagnostic readout: session open, DTC count, DTC list, and
  // the freeze frame of the expected DTC when the list advertises one.
  ReadoutTranscript transcript;
  const wdg::ErrorType expected_type = row.expected_type;
  const std::uint16_t expected_app = static_cast<std::uint16_t>(
      node.safespeed().application().value());
  diag::DiagTester& tester = workshop.tester;
  auto finish_one = [&] {
    if (--transcript.pending == 0) {
      transcript.done = true;
      transcript.completed = engine.now();
    }
  };
  engine.schedule_at(sim::SimTime(kDiagReadoutAtUs), [&] {
    transcript.pending = 3;
    tester.tester_present([&](const std::optional<diag::Response>& response) {
      note_response(transcript, response);
      finish_one();
    });
    tester.read_dtc_count(
        [&](const std::optional<diag::Response>& response) {
          note_response(transcript, response);
          if (response && response->positive) {
            transcript.count = diag::decode_dtc_readout(response->data);
          }
          finish_one();
        });
    tester.read_dtcs([&](const std::optional<diag::Response>& response) {
      note_response(transcript, response);
      if (response && response->positive) {
        transcript.list = diag::decode_dtc_readout(response->data);
      }
      // Chase the freeze frame of the expected DTC while the session is
      // still fresh (only when the list advertises one).
      bool chase = false;
      if (transcript.list) {
        for (const auto& record : transcript.list->records) {
          if (record.type == expected_type && record.has_freeze_frame) {
            chase = true;
            break;
          }
        }
      }
      if (chase) {
        ++transcript.pending;
        tester.read_freeze_frame(
            expected_app, expected_type,
            [&](const std::optional<diag::Response>& response) {
              note_response(transcript, response);
              if (response && response->positive) {
                const auto frame = diag::decode_freeze_frame(response->data);
                transcript.freeze_frame_ok =
                    frame.has_value() && !frame->signals.empty();
              }
              finish_one();
            });
      }
      finish_one();
    });
  });

  node.start();
  EASIS_PROFILE_SPAN_END(setup);
  {
    EASIS_PROFILE_SPAN("run.simulate");
    engine.run_until(sim::SimTime(5'000'000));
  }

  // --- verdict ---------------------------------------------------------------
  EASIS_PROFILE_SPAN_BEGIN(verdict, "run.verdict");
  std::string verdict;
  if (!transcript.done) {
    verdict = "readout_incomplete";
  } else if (transcript.timeouts > 0) {
    verdict = "readout_timeout";
  } else if (transcript.service_not_supported) {
    verdict = "flagged_negative_response";
  } else if (transcript.negatives > 0) {
    verdict = "readout_rejected";
  } else if (!transcript.list) {
    verdict = "readout_undecodable";
  } else {
    if (find_dtc(*transcript.list, expected_type, expected_app) != nullptr) {
      verdict = "correct_dtc";
    } else {
      verdict = transcript.list->records.empty() ? "missing_dtc" : "wrong_dtc";
    }
  }

  const std::string expected = row.expected_verdict;
  const bool accurate = verdict == expected;

  harness::RunResult result;
  std::optional<sim::Duration> latency;
  if (transcript.done) {
    latency = transcript.completed - sim::SimTime(kDiagReadoutAtUs);
  }
  result.coverage.add_result(fault_class, kDiagDetectors.front(), accurate,
                             latency);
  result.rows.push_back(
      {fault_class, expected, verdict,
       transcript.count ? std::to_string(transcript.count->total) : "",
       transcript.count ? std::to_string(transcript.count->active) : "",
       transcript.freeze_frame_ok ? "1" : "0",
       std::to_string(transcript.timeouts),
       std::to_string(transcript.negatives), accurate ? "1" : "0"});
  if (!accurate) {
    result.misdetect = "diag readout verdict '" + verdict + "' != expected '" +
                       expected + "' for " + fault_class;
  }
  return result;
}

}  // namespace easis::bench
