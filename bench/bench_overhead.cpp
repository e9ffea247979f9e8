// Overhead micro-benchmarks (paper claim §2/§3.2.2): the look-up-table
// program flow check is cheaper per event than embedded-signature control
// flow checking (CFCSS), and the heartbeat path stays O(1).
//
// google-benchmark binary; run with --benchmark_format=console (default).
#include <benchmark/benchmark.h>

#include <vector>

#include "baseline/cfcss.hpp"
#include "wdg/heartbeat.hpp"
#include "wdg/pfc.hpp"
#include "wdg/watchdog.hpp"

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
  m.program_flow = false;  // flow edges configured only where benchmarked
  return m;
}

/// Heartbeat indication cost (AC/ARC increment path).
void BM_HeartbeatIndication(benchmark::State& state) {
  wdg::HeartbeatMonitoringUnit hbm;
  const auto runnables = static_cast<std::uint32_t>(state.range(0));
  for (std::uint32_t i = 0; i < runnables; ++i) {
    hbm.add_runnable(make_monitor(i));
  }
  std::uint32_t next = 0;
  for (auto _ : state) {
    hbm.indicate(RunnableId(next));
    next = (next + 1) % runnables;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HeartbeatIndication)->Arg(4)->Arg(32)->Arg(256);

/// PFC look-up table check per executed runnable (the paper's approach).
void BM_PfcLookupCheck(benchmark::State& state) {
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
BENCHMARK(BM_PfcLookupCheck)->Arg(4)->Arg(32)->Arg(256);

/// CFCSS signature update + check per basic block (the related-work
/// comparison; includes the extra D-register assignment on fan-in edges).
void BM_CfcssSignatureCheck(benchmark::State& state) {
  baseline::CfcssChecker checker;
  const auto n = static_cast<std::uint32_t>(state.range(0));
  checker.add_node(0, {});
  for (std::uint32_t i = 1; i < n; ++i) {
    // Every node has two predecessors -> fan-in, worst case for CFCSS.
    checker.add_node(i, {i - 1, (i + n - 2) % n});
  }
  checker.compile();
  std::uint32_t current = 0;
  for (auto _ : state) {
    const std::uint32_t next = (current + 1) % n;
    checker.prepare_branch(next);
    benchmark::DoNotOptimize(checker.enter(next));
    current = next;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CfcssSignatureCheck)->Arg(4)->Arg(32)->Arg(256);

/// Full watchdog main function (one monitoring cycle) vs runnable count.
void BM_WatchdogMainFunction(benchmark::State& state) {
  wdg::WatchdogConfig config;
  wdg::SoftwareWatchdog wd(config);
  const auto runnables = static_cast<std::uint32_t>(state.range(0));
  for (std::uint32_t i = 0; i < runnables; ++i) {
    wd.add_runnable(make_monitor(i));
  }
  std::int64_t t = 0;
  for (auto _ : state) {
    // Keep every runnable alive so no error path dominates.
    for (std::uint32_t i = 0; i < runnables; ++i) {
      wd.indicate_aliveness(RunnableId(i), TaskId(i / 4), sim::SimTime(t));
    }
    wd.main_function(sim::SimTime(t));
    t += 10'000;
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(runnables));
}
BENCHMARK(BM_WatchdogMainFunction)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

/// End-to-end flow check comparison on an identical corrupted stream:
/// look-up table vs CFCSS, 1% corrupted transitions.
void BM_FlowCheckCorruptedStream_Lookup(benchmark::State& state) {
  wdg::ProgramFlowCheckingUnit pfc;
  const std::uint32_t n = 16;
  for (std::uint32_t i = 0; i < n; ++i) {
    pfc.add_monitored(RunnableId(i), TaskId(0));
    pfc.add_edge(RunnableId(i), RunnableId((i + 1) % n));
  }
  auto on_error = [](RunnableId, RunnableId, TaskId, sim::SimTime) {};
  std::uint32_t current = 0, step = 0;
  for (auto _ : state) {
    ++step;
    current = (step % 100 == 0) ? (current + 5) % n : (current + 1) % n;
    pfc.on_execution(RunnableId(current), TaskId(0), sim::SimTime(0),
                     on_error);
  }
}
BENCHMARK(BM_FlowCheckCorruptedStream_Lookup);

void BM_FlowCheckCorruptedStream_Cfcss(benchmark::State& state) {
  baseline::CfcssChecker checker;
  const std::uint32_t n = 16;
  checker.add_node(0, {});
  for (std::uint32_t i = 1; i < n; ++i) checker.add_node(i, {i - 1});
  checker.compile();
  checker.set_error_callback([](baseline::CfcssChecker::NodeId) {});
  std::uint32_t current = 0, step = 0;
  for (auto _ : state) {
    ++step;
    const std::uint32_t next =
        (step % 100 == 0) ? (current + 5) % n : (current + 1) % n;
    checker.prepare_branch(next);
    benchmark::DoNotOptimize(checker.enter(next));
    current = next;
  }
}
BENCHMARK(BM_FlowCheckCorruptedStream_Cfcss);

// --- per-job overhead: the paper's actual claim --------------------------------
//
// CFCSS instruments EVERY basic block, so one runnable of B blocks costs B
// signature updates per execution; the watchdog's look-up table checks once
// per runnable. The per-job totals below reproduce the claim that the
// look-up approach "minimizes performance penalty and extensive
// modification requirements" (§3.2.2) — its advantage is granularity, not
// the price of an individual check.

void BM_PerJobFlowOverhead_Lookup(benchmark::State& state) {
  // One job = 3 runnables, checked once each, independent of block count.
  const auto blocks_per_runnable = state.range(0);
  (void)blocks_per_runnable;
  wdg::ProgramFlowCheckingUnit pfc;
  for (std::uint32_t i = 0; i < 3; ++i) {
    pfc.add_monitored(RunnableId(i), TaskId(0));
    pfc.add_edge(RunnableId(i), RunnableId((i + 1) % 3));
  }
  auto on_error = [](RunnableId, RunnableId, TaskId, sim::SimTime) {};
  for (auto _ : state) {
    for (std::uint32_t i = 0; i < 3; ++i) {
      pfc.on_execution(RunnableId(i), TaskId(0), sim::SimTime(0), on_error);
    }
    pfc.task_boundary(TaskId(0));
  }
  state.SetItemsProcessed(state.iterations());  // jobs
}
BENCHMARK(BM_PerJobFlowOverhead_Lookup)->Arg(10)->Arg(50)->Arg(200);

void BM_PerJobFlowOverhead_Cfcss(benchmark::State& state) {
  // One job = 3 runnables x B basic blocks, every block instrumented.
  const auto blocks = static_cast<std::uint32_t>(state.range(0)) * 3;
  baseline::CfcssChecker checker;
  checker.add_node(0, {});
  for (std::uint32_t i = 1; i < blocks; ++i) checker.add_node(i, {i - 1});
  checker.compile();
  for (auto _ : state) {
    checker.restart();
    benchmark::DoNotOptimize(checker.enter(0));
    for (std::uint32_t i = 1; i < blocks; ++i) {
      checker.prepare_branch(i);
      benchmark::DoNotOptimize(checker.enter(i));
    }
  }
  state.SetItemsProcessed(state.iterations());  // jobs
}
BENCHMARK(BM_PerJobFlowOverhead_Cfcss)->Arg(10)->Arg(50)->Arg(200);

}  // namespace
