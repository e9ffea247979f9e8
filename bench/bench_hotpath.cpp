// Hot-path micro-benchmarks (DESIGN.md §15, ROADMAP item 2).
//
// One benchmark per per-run hot-path primitive the campaign profiler
// attributes cost to: the sim::Engine step loop, one kernel task
// activation through segment completion, telemetry event-bus publication,
// the HBM window check, the PFC pair lookup, SignalBus publication and
// enqueue/drain, and DTC store insertion — plus the profiler's own span
// overhead (installed and uninstalled), so the <5% campaign-overhead
// budget has a per-site number behind it.
//
// google-benchmark binary with a custom main: --json <path> additionally
// writes a single machine-readable snapshot object (ns/op per benchmark),
// the format results/BENCH_hotpath.json accumulates across PRs as a
// labelled array.
#include <benchmark/benchmark.h>

#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "fmf/dtc.hpp"
#include "os/kernel.hpp"
#include "profile/profiler.hpp"
#include "rte/signal_bus.hpp"
#include "sim/engine.hpp"
#include "telemetry/event_bus.hpp"
#include "wdg/heartbeat.hpp"
#include "wdg/pfc.hpp"

using namespace easis;

namespace {

wdg::RunnableMonitor make_monitor(std::uint32_t id) {
  wdg::RunnableMonitor m;
  m.runnable = RunnableId(id);
  m.task = TaskId(id / 4);
  m.application = ApplicationId(0);
  m.name = std::string("r").append(std::to_string(id));
  m.aliveness_cycles = 4;
  m.min_heartbeats = 1;
  m.arrival_cycles = 4;
  m.max_arrivals = 100;
  m.program_flow = false;
  return m;
}

/// sim::Engine step loop: one self-rescheduling event fired per iteration
/// (the dispatch primitive every simulated workload reduces to), over
/// range(0) background events that stay pending, so each push and pop
/// sifts through a heap of that depth.
void BM_EngineStepLoop(benchmark::State& state) {
  sim::Engine engine;
  const auto background = state.range(0);
  for (std::int64_t i = 0; i < background; ++i) {
    engine.schedule_at(sim::SimTime(std::int64_t{1} << 60) +
                           sim::Duration::micros(i),
                       [] {});
  }
  std::function<void()> tick = [&] {
    engine.schedule_in(sim::Duration::micros(1), tick);
  };
  engine.schedule_in(sim::Duration::micros(1), tick);
  for (auto _ : state) {
    // Advances exactly one event period: one pop + dispatch + reschedule.
    engine.run_for(sim::Duration::micros(1));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EngineStepLoop)->Arg(0)->Arg(64)->Arg(1024);

/// One kernel task activation through its segment's completion, with one
/// KernelObserver attached: job build, dispatch, the completion event and
/// termination, each notifying the observer.
void BM_KernelActivateComplete(benchmark::State& state) {
  struct Counting : os::KernelObserver {
    std::uint64_t seen = 0;
    void on_segment_complete(TaskId, RunnableId, sim::SimTime) override {
      ++seen;
    }
  } observer;
  sim::Engine engine;
  os::Kernel kernel(engine);
  os::TaskConfig config;
  config.name = "task";
  config.priority = 1;
  const TaskId task = kernel.create_task(config);
  std::uint64_t completed = 0;
  kernel.set_job_factory(task, [&completed](os::Job& job) {
    os::Segment& segment = job.emplace_back();
    segment.cost = sim::Duration::micros(1);
    segment.runnable = RunnableId(0);
    segment.on_complete = [&completed] { ++completed; };
  });
  kernel.add_observer(&observer);
  kernel.start();
  for (auto _ : state) {
    kernel.activate_task(task);
    engine.run_for(sim::Duration::micros(1));
  }
  if (completed != static_cast<std::uint64_t>(state.iterations()) ||
      observer.seen != completed) {
    state.SkipWithError("a job did not complete within its iteration");
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KernelActivateComplete);

/// Telemetry event-bus publication with one attached sink (the campaign
/// capture configuration: the event log behind one lambda).
void BM_EventBusPublish(benchmark::State& state) {
  telemetry::EventBus bus;
  std::uint64_t seen = 0;
  bus.add_sink([&](const telemetry::Event&) { ++seen; });
  telemetry::Event event;
  event.component = telemetry::Component::kHeartbeatUnit;
  event.kind = telemetry::EventKind::kErrorDetected;
  for (auto _ : state) {
    bus.publish(event);
  }
  benchmark::DoNotOptimize(seen);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventBusPublish);

/// HBM supervision-window check: one tick() over N supervised runnables,
/// all healthy (the no-error fast path every monitoring cycle pays).
void BM_HbmWindowCheck(benchmark::State& state) {
  wdg::HeartbeatMonitoringUnit hbm;
  const auto runnables = static_cast<std::uint32_t>(state.range(0));
  for (std::uint32_t i = 0; i < runnables; ++i) {
    hbm.add_runnable(make_monitor(i));
  }
  auto on_error = [](RunnableId, wdg::ErrorType, sim::SimTime) {};
  std::int64_t t = 0;
  for (auto _ : state) {
    for (std::uint32_t i = 0; i < runnables; ++i) hbm.indicate(RunnableId(i));
    hbm.tick(sim::SimTime(t), on_error);
    t += 1000;
  }
  state.SetItemsProcessed(state.iterations() * runnables);
}
BENCHMARK(BM_HbmWindowCheck)->Arg(4)->Arg(32);

/// PFC (predecessor, current) pair lookup per executed runnable.
void BM_PfcPairLookup(benchmark::State& state) {
  wdg::ProgramFlowCheckingUnit pfc;
  const auto n = static_cast<std::uint32_t>(state.range(0));
  for (std::uint32_t i = 0; i < n; ++i) {
    pfc.add_monitored(RunnableId(i), TaskId(0));
    pfc.add_edge(RunnableId(i), RunnableId((i + 1) % n));
  }
  pfc.add_entry_point(RunnableId(0));
  auto on_error = [](RunnableId, RunnableId, TaskId, sim::SimTime) {};
  std::uint32_t current = 0;
  for (auto _ : state) {
    pfc.on_execution(RunnableId(current), TaskId(0), sim::SimTime(0),
                     on_error);
    current = (current + 1) % n;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PfcPairLookup)->Arg(4)->Arg(32);

/// SignalBus publication of an existing signal, named by a literal the
/// way runnables name their ports: "speed" fits the small-string buffer,
/// "safespeed.speed_measured" (24 bytes) does not. The bus holds 14
/// signals, as an environment-campaign node's does.
void BM_SignalPublish(benchmark::State& state, const char* name) {
  rte::SignalBus bus;
  for (int i = 0; i < 13; ++i) {
    bus.publish("node.signal." + std::to_string(i), 0.0, sim::SimTime(0));
  }
  std::int64_t t = 0;
  for (auto _ : state) {
    bus.publish(name, 100.0, sim::SimTime(t));
    t += 1000;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_SignalPublish, short_name, "speed");
BENCHMARK_CAPTURE(BM_SignalPublish, long_name, "safespeed.speed_measured");

/// SignalBus bounded-queue enqueue + drain pair (the RTE delivery path the
/// queue-overflow monitor supervises).
void BM_SignalBusEnqueueDrain(benchmark::State& state) {
  rte::SignalBus bus;
  bus.configure_queue("speed", 64);
  std::int64_t t = 0;
  for (auto _ : state) {
    bus.publish("speed", 100.0, sim::SimTime(t));
    benchmark::DoNotOptimize(bus.drain("speed"));
    t += 1000;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SignalBusEnqueueDrain);

/// DTC store insertion into a bounded fault memory: rotating keys force
/// the create + oldest-eviction path (worst case), not the update path.
void BM_DtcStoreInsert(benchmark::State& state) {
  rte::SignalBus signals;
  signals.publish("speed", 120.0, sim::SimTime(0));
  fmf::DtcStore store(signals, {"speed"}, /*max_entries=*/8);
  wdg::ErrorReport report;
  report.runnable = RunnableId(1);
  report.task = TaskId(0);
  report.type = wdg::ErrorType::kAliveness;
  std::uint16_t app = 0;
  std::int64_t t = 0;
  for (auto _ : state) {
    report.application = ApplicationId(app);
    report.time = sim::SimTime(t);
    store.record(report);
    app = (app + 1) % 16;  // 16 keys through 8 slots: every insert evicts
    t += 1000;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DtcStoreInsert);

/// Profiler span cost with a profiler installed: two steady_clock reads,
/// the tree walk, and a ring write (what an instrumented site pays inside
/// a profiled campaign).
void BM_ProfileSpanInstalled(benchmark::State& state) {
  profile::Profiler profiler;
  profiler.begin_run();
  profile::ProfileScope scope(profiler);
  for (auto _ : state) {
    EASIS_PROFILE_SPAN("bench.span");
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProfileSpanInstalled);

/// Profiler span cost with no profiler installed: the thread-local load
/// plus branch every instrumented site pays in an unprofiled campaign.
void BM_ProfileSpanUninstalled(benchmark::State& state) {
  for (auto _ : state) {
    EASIS_PROFILE_SPAN("bench.span.off");
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProfileSpanUninstalled);

/// Profiler counter cost with a profiler installed.
void BM_ProfileCountInstalled(benchmark::State& state) {
  profile::Profiler profiler;
  profiler.begin_run();
  profile::ProfileScope scope(profiler);
  for (auto _ : state) {
    EASIS_PROFILE_COUNT("bench.count", 1);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProfileCountInstalled);

/// Console reporter that additionally captures (name, ns/op) per run for
/// the JSON snapshot.
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  struct Sample {
    std::string name;
    double ns_per_op;
  };

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      samples.push_back(Sample{run.benchmark_name(),
                               run.GetAdjustedRealTime()});
    }
    ConsoleReporter::ReportRuns(runs);
  }

  std::vector<Sample> samples;
};

}  // namespace

int main(int argc, char** argv) {
  // Pre-scan for --json <path> / --json=<path>; everything else goes to
  // google-benchmark's own flag parser.
  std::string json_path;
  std::vector<char*> passthrough;
  passthrough.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  int pass_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&pass_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(pass_argc, passthrough.data())) {
    return 1;
  }

  CapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  if (!json_path.empty()) {
    std::ofstream json(json_path);
    json << "{\n"
         << "  \"bench\": \"hotpath\",\n"
         << "  \"unit\": \"ns_per_op\",\n"
         << "  \"benchmarks\": [\n";
    for (std::size_t i = 0; i < reporter.samples.size(); ++i) {
      const auto& s = reporter.samples[i];
      json << "    {\"name\": \"" << s.name
           << "\", \"ns_per_op\": " << s.ns_per_op << "}"
           << (i + 1 < reporter.samples.size() ? "," : "") << '\n';
    }
    json << "  ]\n}\n";
    std::cout << "snapshot written to " << json_path << '\n';
  }
  return 0;
}
