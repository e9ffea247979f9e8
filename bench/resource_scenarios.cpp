// Resource-exhaustion campaign scenario (exp_resource_coverage).
//
// One run = one fresh central node whose resources are budgeted and
// supervised:
//
//   safespeed.mem     - SafeSpeed's heap budget (1 MiB)
//   safespeed.handles - SafeSpeed's descriptor budget (32 of a 64 pool)
//   lane.queue        - the bounded lane-sample queue (16 deep), fed by a
//                       10 ms producer and drained by a 10 ms consumer
//   ecu.load          - the modelled CPU-load average, attributed to the
//                       QM light-control application (the load-shedding
//                       target)
//
// Six fault classes attack them; four detectors watch, each one layer of
// the treatment chain: the RSU's error reports, the TSI task state, the
// FMF treatment (restart with pool reclaim / degrade into load shedding),
// and the post-run UDS-lite readout of the resource DTC.
#include "campaign_scenarios.hpp"

#include <optional>

#include "diag/protocol.hpp"
#include "fmf/fmf.hpp"
#include "inject/campaign.hpp"
#include "inject/injector.hpp"
#include "inject/resource_faults.hpp"
#include "scenario_kit.hpp"
#include "sim/engine.hpp"
#include "util/random.hpp"
#include "validator/central_node.hpp"
#include "wdg/resource_monitor.hpp"

namespace easis::bench {

namespace {

constexpr std::uint64_t kMemoryBudget = 1u << 20;  // 1 MiB
constexpr std::uint32_t kHandleBudget = 32;
constexpr std::uint32_t kHandlePool = 64;
constexpr std::uint32_t kQueueDepth = 16;

/// One resource-exhaustion class: the error it must raise, the supervised
/// resource it exhausts (whose task and application the fault is bound
/// to), and its injection, parameterized by the run's RNG.
struct ResourceFaultClass {
  const char* name;
  wdg::ErrorType expected_type;
  const char* resource;
  inject::Injection (*inject)(sim::Engine&, validator::CentralNode&,
                              util::Rng&, sim::SimTime);
};

constexpr ResourceFaultClass kResourceClasses[] = {
    {"memory_leak", wdg::ErrorType::kMemoryBudget, "safespeed.mem",
     [](auto& engine, auto& node, auto& rng, auto at) {
       return inject::make_memory_leak(
           engine, node.kernel(), node.safespeed_task(),
           static_cast<std::uint64_t>(rng.uniform_int(12'000, 24'000)),
           sim::Duration::millis(10), at,
           sim::Duration::millis(rng.uniform_int(2000, 3000)));
     }},
    {"memory_burst", wdg::ErrorType::kMemoryBudget, "safespeed.mem",
     [](auto&, auto& node, auto& rng, auto at) {
       return inject::make_allocation_burst(
           node.kernel(), node.safespeed_task(),
           static_cast<std::uint64_t>(rng.uniform_int(96'000, 160'000)), 16,
           at);
     }},
    {"handle_exhaustion", wdg::ErrorType::kHandleExhaustion,
     "safespeed.handles",
     [](auto& engine, auto& node, auto& rng, auto at) {
       return inject::make_handle_exhaustion(
           engine, node.kernel(), node.safespeed_task(),
           static_cast<std::uint32_t>(rng.uniform_int(2, 4)),
           sim::Duration::millis(20), at,
           sim::Duration::millis(rng.uniform_int(2000, 3000)));
     }},
    {"queue_flood", wdg::ErrorType::kQueueOverflow, "lane.queue",
     [](auto& engine, auto& node, auto& rng, auto at) {
       return inject::make_queue_flood(
           engine, node.signals(), "lane.samples",
           static_cast<std::uint32_t>(rng.uniform_int(8, 16)),
           sim::Duration::millis(10), at,
           sim::Duration::millis(rng.uniform_int(1500, 2500)));
     }},
    // The hogged job must still fit its 50 ms period (120 us * ~320 =
    // ~38 ms): an overrunning job loses every other activation and the
    // load collapses into a sawtooth no watermark can hold onto.
    {"cpu_hog", wdg::ErrorType::kCpuOverload, "ecu.load",
     [](auto&, auto& node, auto& rng, auto at) {
       return inject::make_cpu_hog(
           node.rte(), node.light_control()->control_lights(),
           rng.uniform(300.0, 340.0), at,
           sim::Duration::millis(rng.uniform_int(2000, 3000)));
     }},
    {"creeping_load", wdg::ErrorType::kCpuOverload, "ecu.load",
     [](auto& engine, auto& node, auto& rng, auto at) {
       return inject::make_creeping_load(
           engine, node.rte(), node.light_control()->control_lights(),
           rng.uniform(20.0, 35.0), sim::Duration::millis(100), at,
           sim::Duration::millis(rng.uniform_int(2500, 3500)));
     }},
};

}  // namespace

const std::vector<std::string>& resource_fault_classes() {
  static const auto kClasses = class_names(kResourceClasses);
  return kClasses;
}

const std::string& resource_fault_csv_header() {
  static const std::string kHeader =
      "fault_class,resource,expected_error,rsu_reports,task_faulty,"
      "treatment,dtc_found,freeze_frame,level_pct,accurate";
  return kHeader;
}

harness::RunResult run_resource_fault(const std::string& fault_class,
                                      std::uint64_t seed,
                                      const harness::RunContext* ctx) {
  const ResourceFaultClass& row =
      find_class(kResourceClasses, fault_class, "resource");
  util::Rng rng(seed);

  sim::Engine engine;
  validator::CentralNodeConfig config;
  config.dtc_capacity = 8;
  // Resource DTC freeze frames must carry the offending task's resource
  // snapshot: capture the RSU's level signals next to the vehicle state.
  config.extra_frame_signals = {
      "res.safespeed.mem.level", "res.safespeed.handles.level",
      "res.lane.queue.level", "res.ecu.load.level"};
  validator::CentralNode node(engine, config);

  // --- budgets and supervised resources ---------------------------------------
  node.kernel().set_task_resource_budget(
      node.safespeed_task(), os::TaskResourceBudget{kMemoryBudget,
                                                    kHandleBudget});
  node.kernel().set_handle_pool_capacity(kHandlePool);
  node.signals().configure_queue("lane.samples", kQueueDepth);

  wdg::ResourceSupervisionUnit& rsu = node.attach_resource_supervision();
  const ApplicationId ss_app = node.safespeed().application();
  const ApplicationId lane_app = node.safelane()->application();
  const ApplicationId light_app = node.light_control()->application();

  wdg::SupervisedResource mem;
  mem.id = RunnableId{2000};
  mem.task = node.safespeed_task();
  mem.application = ss_app;
  mem.name = "safespeed.mem";
  mem.resource_class = wdg::ResourceClass::kMemory;
  mem.limits.watermark = 0.8;
  mem.limits.window_cycles = 3;
  mem.limits.leak_rate_per_s = 0.05;
  rsu.add_resource(mem);

  wdg::SupervisedResource handles;
  handles.id = RunnableId{2001};
  handles.task = node.safespeed_task();
  handles.application = ss_app;
  handles.name = "safespeed.handles";
  handles.resource_class = wdg::ResourceClass::kHandles;
  handles.limits.watermark = 0.85;
  handles.limits.window_cycles = 3;
  rsu.add_resource(handles);

  wdg::SupervisedResource queue;
  queue.id = RunnableId{2002};
  queue.task = node.safelane_task();
  queue.application = lane_app;
  queue.name = "lane.queue";
  queue.resource_class = wdg::ResourceClass::kQueue;
  queue.limits.watermark = 0.75;
  queue.limits.window_cycles = 3;
  queue.queue_signal = "lane.samples";
  rsu.add_resource(queue);

  wdg::SupervisedResource load;
  load.id = RunnableId{2003};
  load.task = node.light_task();
  load.application = light_app;
  load.name = "ecu.load";
  load.resource_class = wdg::ResourceClass::kCpuLoad;
  load.limits.watermark = 0.7;
  load.limits.window_cycles = 5;
  rsu.add_resource(load);
  // The 10 ms supervision cycle beats against the 50 ms period of the
  // hogged runnable; heavier smoothing keeps the load average a duty-cycle
  // mean instead of a sawtooth that dips below the watermark every period.
  rsu.set_load_smoothing(0.1);

  // --- treatments -------------------------------------------------------------
  // CPU overload is treated by load shedding, not restart.
  fmf::FaultManagementFramework* fmf = node.fault_management();
  shed_light_control_on_fault(node);

  // --- detectors --------------------------------------------------------------
  inject::DetectionRecorder recorder(kResourceDetectors);

  // The fault is bound to the task and application of the resource its
  // class exhausts.
  const wdg::ErrorType expected_type = row.expected_type;
  const wdg::SupervisedResource* bound = nullptr;
  for (const wdg::SupervisedResource* resource :
       {&mem, &handles, &queue, &load}) {
    if (resource->name == row.resource) bound = resource;
  }
  const TaskId bound_task = bound->task;
  const ApplicationId bound_app = bound->application;

  node.watchdog().add_error_listener([&](const wdg::ErrorReport& report) {
    if (report.type == expected_type) {
      recorder.record("rsu_report", report.time);
    }
  });
  // The faulty window closes synchronously (the FMF's treatment clears the
  // task state in the same event), so a poller would miss it: listen.
  node.watchdog().add_task_state_listener(
      [&](TaskId task, wdg::Health health, sim::SimTime now) {
        if (task == bound_task && health == wdg::Health::kFaulty) {
          recorder.record("task_state", now);
        }
      });

  // --- steady workload --------------------------------------------------------
  // The lane queue sees one sample in and two drained every 10 ms (never
  // backs up without a fault); SafeSpeed churns a small allocation and a
  // handle every 20 ms (alive but balanced resource traffic).
  engine.every(sim::Duration::millis(10), [&] {
    node.signals().publish("lane.samples", 1.0, engine.now());
    node.signals().drain("lane.samples", 2);
  });
  engine.every(sim::Duration::millis(20), [&] {
    if (node.kernel().task_alloc(node.safespeed_task(), 4096)) {
      node.kernel().task_free(node.safespeed_task(), 4096);
    }
    if (node.kernel().task_acquire_handles(node.safespeed_task(), 1)) {
      node.kernel().task_release_handles(node.safespeed_task(), 1);
    }
  });
  engine.every(sim::Duration::millis(10), [&] {
    if (node.rte().restart_count(bound_app) > 0 ||
        fmf->is_degraded(bound_app)) {
      recorder.record("treatment", engine.now());
    }
  });
  publish_flight_note(engine, ctx, [&rsu] { return rsu.format_snapshot(); });

  // --- injection --------------------------------------------------------------
  const sim::SimTime inject_at(kInjectAtUs);
  inject::ErrorInjector injector(engine);
  injector.add(row.inject(engine, node, rng, inject_at));
  injector.arm();
  recorder.mark_injection(inject_at);

  // --- post-run UDS-lite readout of the resource DTC --------------------------
  Workshop workshop(engine, node);
  bool dtc_found = false;
  bool freeze_frame_ok = false;
  engine.schedule_at(sim::SimTime(kReadoutAtUs), [&] {
    workshop.read_dtc(
        expected_type, bound_app, [&](const diag::DtcRecord& record) {
          dtc_found = true;
          recorder.record("diag_readout", engine.now());
          if (!record.has_freeze_frame) return;
          workshop.tester.read_freeze_frame(
              record.application, expected_type,
              [&](const std::optional<diag::Response>& response) {
                if (!response || !response->positive) return;
                const auto frame = diag::decode_freeze_frame(response->data);
                freeze_frame_ok = frame.has_value() && !frame->signals.empty();
              });
        });
  });

  node.start();
  engine.run_until(sim::SimTime(kRunUntilUs));

  // --- reduction --------------------------------------------------------------
  harness::RunResult result;
  result.coverage.add_run(fault_class, recorder);

  const RunnableId resource_id = bound->id;
  const bool accurate = recorder.detected("rsu_report") && dtc_found;
  result.rows.push_back(
      {fault_class, row.resource, std::string(wdg::to_string(expected_type)),
       std::to_string(rsu.reports_for(resource_id)),
       recorder.detected("task_state") ? "1" : "0",
       recorder.detected("treatment") ? "1" : "0", dtc_found ? "1" : "0",
       freeze_frame_ok ? "1" : "0",
       std::to_string(rsu.level_pct(resource_id)), accurate ? "1" : "0"});
  if (!accurate) {
    result.misdetect = "resource fault '" + fault_class +
                       "' not detected end-to-end (rsu_report=" +
                       (recorder.detected("rsu_report") ? "1" : "0") +
                       ", dtc_found=" + (dtc_found ? "1" : "0") + ")";
  }
  if (ctx != nullptr) ctx->set_flight_note(rsu.format_snapshot());
  return result;
}

}  // namespace easis::bench
