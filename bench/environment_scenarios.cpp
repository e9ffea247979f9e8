// Environmental-supervision campaign scenario (exp_environment_coverage).
//
// One run = one fresh central node whose environment is supervised:
//
//   ecu          - the junction-temperature model behind the thermal
//                  graceful-derating ladder (normal -> warn -> derate ->
//                  controlled shutdown), with sensor plausibility checks
//   faultmem     - the double-banked NVM journal of the fault memory
//                  (fill watermark, write errors, overflow, erase wear)
//   safespeed.cc - one instrumented deadline section over SafeSpeed's
//                  control runnable (the supervised-process client API)
//
// Eight fault classes attack them; four detectors watch, each one layer
// of the treatment chain: the ESU/PSU error reports, the DTC landing in
// fault memory, the class's treatment (derate parking, persistent safe
// state, evict-by-priority, degradation into load shedding, restart), and
// the post-run UDS-lite readout of the DTC plus the class's environment
// identifier.
#include "campaign_scenarios.hpp"

#include <cmath>
#include <optional>

#include "diag/protocol.hpp"
#include "fmf/fmf.hpp"
#include "fmf/nvm.hpp"
#include "inject/campaign.hpp"
#include "inject/environment_faults.hpp"
#include "inject/injector.hpp"
#include "inject/resource_faults.hpp"
#include "scenario_kit.hpp"
#include "sim/engine.hpp"
#include "util/random.hpp"
#include "validator/central_node.hpp"
#include "wdg/env_monitor.hpp"
#include "wdg/process_supervisor.hpp"

namespace easis::bench {

namespace {

/// Small journal for the fill class: a few flooded DTCs with freeze
/// frames cross the watermark and overflow the bank.
constexpr std::size_t kSmallNvmCapacity = 1536;
/// Deadline of the instrumented SafeSpeed control section: ~4x the
/// nominal 400 us control cost, far below the hogged cost.
constexpr std::int64_t kSectionDeadlineUs = 1'500;

/// One environmental class: the error it must raise, the supervised
/// channel that raises it, the identifier read back with its DTC, its
/// treatment predicate, its injection parameterized by the run's RNG, and
/// the fault-memory journal size it needs.
struct EnvironmentFaultClass {
  const char* name;
  wdg::ErrorType expected_type;
  const char* channel;
  std::uint16_t did;
  /// Polled every 10 ms; `memo` is run-local state the predicate may keep.
  bool (*treated)(validator::CentralNode&, std::optional<std::uint32_t>& memo);
  inject::Injection (*inject)(sim::Engine&, validator::CentralNode&,
                              util::Rng&, sim::SimTime);
  /// 0 keeps the node's default capacity.
  std::size_t nvm_capacity = 0;
};

ApplicationId light_app_of(validator::CentralNode& node) {
  return node.light_control()->application();
}

/// FMF degradation via the TSI, or the precautionary derate parking:
/// whichever lands first, the QM application is off the bus.
bool light_control_shed(validator::CentralNode& node,
                        std::optional<std::uint32_t>&) {
  return node.fault_management()->is_degraded(light_app_of(node)) ||
         !node.rte().application_enabled(light_app_of(node));
}

constexpr EnvironmentFaultClass kEnvironmentClasses[] = {
    // Ambient into the derate band (junction = ambient + 8 C idle rise
    // stays below the 105 C shutdown boundary); held past the readout.
    // The derate stage of the ladder parks the QM applications.
    {"thermal_ramp", wdg::ErrorType::kThermal, "ecu", diag::kDidTemperature,
     [](auto& node, auto&) {
       return !node.rte().application_enabled(light_app_of(node));
     },
     [](auto& engine, auto& node, auto& rng, auto at) {
       return inject::make_thermal_ramp(
           engine, node.thermal_model(), rng.uniform(85.0, 93.0), 4.0,
           sim::Duration::millis(50), at,
           sim::Duration::millis(rng.uniform_int(4200, 4800)));
     }},
    // Ambient past the shutdown boundary: the ladder must walk
    // warn -> derate -> shutdown and latch the persistent safe state.
    {"thermal_runaway", wdg::ErrorType::kThermal, "ecu",
     diag::kDidDerateStage,
     [](auto& node, auto&) { return node.in_safe_state(); },
     [](auto& engine, auto& node, auto& rng, auto at) {
       return inject::make_thermal_ramp(
           engine, node.thermal_model(), rng.uniform(115.0, 125.0), 6.0,
           sim::Duration::millis(40), at, sim::Duration::millis(5000));
     }},
    {"sensor_stuck", wdg::ErrorType::kThermal, "ecu", diag::kDidDerateStage,
     light_control_shed,
     [](auto&, auto& node, auto& rng, auto at) {
       return inject::make_sensor_stuck(
           node.thermal_model(), at,
           sim::Duration::millis(rng.uniform_int(2500, 3500)));
     }},
    {"sensor_implausible", wdg::ErrorType::kThermal, "ecu",
     diag::kDidDerateStage, light_control_shed,
     [](auto&, auto& node, auto& rng, auto at) {
       return inject::make_sensor_offset(
           node.thermal_model(), rng.uniform(140.0, 160.0), at,
           sim::Duration::millis(rng.uniform_int(2500, 3500)));
     }},
    // Evict-by-priority: the fault memory degrades gracefully instead of
    // losing the commit.
    {"flash_fill", wdg::ErrorType::kFilesystem, "faultmem",
     diag::kDidFlashFill,
     [](auto& node, auto&) {
       return node.fault_management()->nvm_evictions() > 0;
     },
     [](auto& engine, auto& node, auto& rng, auto at) {
       return inject::make_dtc_flood(
           engine, *node.fault_management(), /*first_app=*/600,
           static_cast<std::uint32_t>(rng.uniform_int(2, 4)),
           sim::Duration::millis(100), at,
           sim::Duration::millis(rng.uniform_int(2500, 3500)));
     },
     kSmallNvmCapacity},
    // Recovery: commits resume once the transient burst is exhausted.
    {"nvm_write_errors", wdg::ErrorType::kFilesystem, "faultmem",
     diag::kDidFlashFill,
     [](auto& node, auto& commits_at_error) {
       if (node.nvm()->write_errors() == 0) return false;
       if (!commits_at_error) {
         commits_at_error = node.nvm()->commits();
         return false;
       }
       return node.nvm()->commits() > *commits_at_error;
     },
     [](auto&, auto& node, auto& rng, auto at) {
       return inject::make_nvm_write_fault_burst(
           *node.nvm(), static_cast<std::uint32_t>(rng.uniform_int(6, 11)),
           at);
     }},
    // The erase budget is drawn before the storm's duration.
    {"flash_wear", wdg::ErrorType::kFilesystem, "faultmem",
     diag::kDidFlashWear,
     [](auto& node, auto&) {
       return node.fault_management()->is_degraded(light_app_of(node));
     },
     [](auto& engine, auto& node, auto& rng, auto at) {
       node.nvm()->set_erase_budget(
           static_cast<std::uint32_t>(rng.uniform_int(48, 60)));
       return inject::make_commit_storm(
           engine, *node.fault_management(), sim::Duration::millis(20), at,
           sim::Duration::millis(rng.uniform_int(2500, 3500)));
     }},
    // The hogged control runnable (400 us -> 3.2..4.8 ms) blows the
    // 1.5 ms section deadline every period but still fits the 10 ms task;
    // the FMF restarts SafeSpeed.
    {"deadline_transgression", wdg::ErrorType::kDeadline, "safespeed.cc",
     diag::kDidTransgressions,
     [](auto& node, auto&) {
       return node.rte().restart_count(node.safespeed().application()) > 0;
     },
     [](auto&, auto& node, auto& rng, auto at) {
       return inject::make_cpu_hog(
           node.rte(), node.safespeed().safe_cc_process(),
           rng.uniform(8.0, 12.0), at,
           sim::Duration::millis(rng.uniform_int(1000, 1500)));
     }},
};

}  // namespace

const std::vector<std::string>& environment_fault_classes() {
  static const auto kClasses = class_names(kEnvironmentClasses);
  return kClasses;
}

const std::string& environment_fault_csv_header() {
  static const std::string kHeader =
      "fault_class,channel,expected_error,env_reports,stage_trace,"
      "treatment,dtc_found,did_value,evictions,write_errors,"
      "transgressions,accurate";
  return kHeader;
}

harness::RunResult run_environment_fault(const std::string& fault_class,
                                         std::uint64_t seed,
                                         const harness::RunContext* ctx) {
  const EnvironmentFaultClass& row =
      find_class(kEnvironmentClasses, fault_class, "environment");
  util::Rng rng(seed);

  sim::Engine engine;
  validator::CentralNodeConfig config;
  // A fast thermal plant (tau 500 ms) so a ramp injected at t=2s walks
  // the whole ladder well before the t=6s readout; the limits sit below
  // the defaults for the same reason.
  config.thermal.time_constant = sim::Duration::millis(500);
  config.thermal_limits.warn_c = 60.0;
  config.thermal_limits.derate_c = 80.0;
  config.thermal_limits.shutdown_c = 105.0;
  if (row.nvm_capacity != 0) config.nvm_capacity = row.nvm_capacity;
  // Environment DTC freeze frames carry the ESU's bus signals next to the
  // vehicle state: the post-mortem shows how hot/full the node was.
  config.extra_frame_signals = {"env.ecu.temp_c", "env.ecu.stage",
                                "env.faultmem.fill.level",
                                "env.faultmem.wear.level"};
  validator::CentralNode node(engine, config);

  // --- supervised environment -------------------------------------------------
  wdg::EnvironmentSupervisionUnit& esu =
      node.attach_environment_supervision();
  wdg::ProcessSupervisionUnit& psu = node.attach_process_supervision();
  wdg::SectionConfig section;
  section.name = "safespeed.cc";
  section.runnable = node.safespeed().safe_cc_process();
  section.task = node.safespeed_task();
  section.application = node.safespeed().application();
  section.deadline = sim::Duration::micros(kSectionDeadlineUs);
  const std::size_t cc_section = psu.add_section(section);
  psu.bind_kernel(node.kernel());

  const ApplicationId ss_app = node.safespeed().application();
  const ApplicationId light_app = node.light_control()->application();
  const RunnableId thermal_id{2100};
  const RunnableId fs_id{2101};

  fmf::FaultManagementFramework* fmf = node.fault_management();

  // --- treatments -------------------------------------------------------------
  shed_light_control_on_fault(node);

  // --- detectors --------------------------------------------------------------
  inject::DetectionRecorder recorder(kEnvironmentDetectors);

  const wdg::ErrorType expected_type = row.expected_type;
  const ApplicationId expected_app =
      expected_type == wdg::ErrorType::kDeadline ? ss_app : light_app;

  node.watchdog().add_error_listener([&](const wdg::ErrorReport& report) {
    if (report.type == expected_type) {
      recorder.record("env_report", report.time);
    }
  });

  // --- steady workload --------------------------------------------------------
  // The fault memory sees a periodic maintenance commit (the journal is
  // alive without a fault; this is also what retries after a write-error
  // burst), and two samplers poll the treatment predicate and the DTC
  // store every supervision-ish period.
  std::optional<std::uint32_t> treatment_memo;
  engine.every(sim::Duration::millis(250), [fmf] { fmf->persist(); });
  engine.every(sim::Duration::millis(10), [&] {
    if (row.treated(node, treatment_memo)) {
      recorder.record("treatment", engine.now());
    }
    if (node.dtc_store() != nullptr &&
        node.dtc_store()->entry({expected_app, expected_type}) != nullptr) {
      recorder.record("fault_memory", engine.now());
    }
  });
  publish_flight_note(engine, ctx, [&esu] { return esu.format_snapshot(); });

  // --- injection --------------------------------------------------------------
  const sim::SimTime inject_at(kInjectAtUs);
  inject::ErrorInjector injector(engine);
  injector.add(row.inject(engine, node, rng, inject_at));
  injector.arm();
  recorder.mark_injection(inject_at);

  // --- post-run UDS-lite readout ----------------------------------------------
  Workshop workshop(engine, node);
  bool dtc_found = false;
  std::optional<double> did_value;
  engine.schedule_at(sim::SimTime(kReadoutAtUs), [&] {
    workshop.read_dtc(expected_type, expected_app, [&](const diag::DtcRecord&) {
      dtc_found = true;
      recorder.record("diag_readout", engine.now());
    });
    workshop.tester.read_data(
        row.did, [&](const std::optional<diag::Response>& response) {
          if (!response || !response->positive) return;
          did_value = diag::get_f32(response->data, 2);
        });
  });

  node.start();
  engine.run_until(sim::SimTime(kRunUntilUs));

  // --- reduction --------------------------------------------------------------
  harness::RunResult result;
  result.coverage.add_run(fault_class, recorder);

  const std::string channel = row.channel;
  std::uint64_t env_reports = psu.record(cc_section).count;
  if (channel == "ecu") env_reports = esu.reports_for(thermal_id);
  if (channel == "faultmem") env_reports = esu.reports_for(fs_id);
  bool accurate = recorder.detected("env_report") && dtc_found;
  // The runaway class must show the whole ladder: every stage stepped
  // through observably, never a jump from normal into shutdown.
  if (fault_class == "thermal_runaway" &&
      esu.stage_trace() != "normal>warn>derate>shutdown") {
    accurate = false;
  }
  result.rows.push_back(
      {fault_class, channel, std::string(wdg::to_string(expected_type)),
       std::to_string(env_reports), esu.stage_trace(),
       recorder.detected("treatment") ? "1" : "0", dtc_found ? "1" : "0",
       did_value ? std::to_string(std::llround(*did_value)) : "-",
       std::to_string(fmf->nvm_evictions()),
       std::to_string(node.nvm()->write_errors()),
       std::to_string(psu.transgressions()), accurate ? "1" : "0"});
  if (!accurate) {
    result.misdetect =
        "environment fault '" + fault_class +
        "' not detected end-to-end (env_report=" +
        (recorder.detected("env_report") ? "1" : "0") +
        ", dtc_found=" + (dtc_found ? "1" : "0") +
        ", trace=" + esu.stage_trace() + ")";
  }
  if (ctx != nullptr) ctx->set_flight_note(esu.format_snapshot());
  return result;
}

}  // namespace easis::bench
