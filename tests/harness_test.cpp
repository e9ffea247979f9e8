// Tests for the campaign harness: deterministic sharded execution,
// mergeable coverage statistics, and hang quarantine.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "harness/campaign_report.hpp"
#include "harness/campaign_runner.hpp"
#include "inject/campaign.hpp"
#include "sim/time.hpp"
#include "telemetry/event_bus.hpp"
#include "util/random.hpp"

namespace easis {
namespace {

using harness::CampaignConfig;
using harness::CampaignOutcome;
using harness::CampaignReport;
using harness::CampaignRunner;
using harness::RunContext;
using harness::RunResult;
using harness::RunSpec;
using harness::RunStatus;

// Synthetic but seed-sensitive workload: a few RNG draws decide detection
// and latency, so any seeding or ordering bug shows up as a table diff.
RunResult synthetic_run(const RunContext& ctx) {
  util::Rng rng(ctx.spec().seed);
  RunResult result;
  const std::string fault = "class_" + std::to_string(ctx.spec().run_index % 3);
  for (const char* detector : {"det_a", "det_b"}) {
    const bool detected = rng.bernoulli(0.7);
    result.coverage.add_result(
        fault, detector, detected,
        detected ? std::optional<sim::Duration>(
                       sim::Duration::micros(rng.uniform_int(100, 5000)))
                 : std::nullopt);
  }
  result.rows.push_back({std::to_string(ctx.spec().run_index),
                         std::to_string(ctx.spec().seed % 1000)});
  return result;
}

std::string coverage_csv(const CampaignReport& report) {
  std::ostringstream out;
  report.write_coverage_csv(out);
  return out.str();
}

// --- CoverageTable::merge ----------------------------------------------------

TEST(CoverageTableMerge, InOrderMergeEqualsSerialTable) {
  inject::CoverageTable serial;
  inject::CoverageTable shard_a, shard_b;
  for (int i = 0; i < 20; ++i) {
    const std::string fc = i % 2 == 0 ? "hang" : "drop";
    const bool detected = i % 3 != 0;
    const auto latency =
        detected ? std::optional<sim::Duration>(sim::Duration::micros(100 + i))
                 : std::nullopt;
    serial.add_result(fc, "wdg", detected, latency);
    (i < 10 ? shard_a : shard_b).add_result(fc, "wdg", detected, latency);
  }
  inject::CoverageTable merged;
  merged.merge(shard_a);
  merged.merge(shard_b);

  for (const std::string fc : {"hang", "drop"}) {
    EXPECT_EQ(merged.experiments(fc, "wdg"), serial.experiments(fc, "wdg"));
    EXPECT_EQ(merged.detections(fc, "wdg"), serial.detections(fc, "wdg"));
    ASSERT_NE(merged.latency_stats(fc, "wdg"), nullptr);
    // In-order merge replays the exact serial sample sequence: bitwise.
    EXPECT_EQ(merged.latency_stats(fc, "wdg")->mean(),
              serial.latency_stats(fc, "wdg")->mean());
    EXPECT_EQ(merged.latency_stats(fc, "wdg")->variance(),
              serial.latency_stats(fc, "wdg")->variance());
  }
}

TEST(CoverageTableMerge, AnyMergeOrderMatchesWithinTolerance) {
  std::vector<inject::CoverageTable> shards(4);
  inject::CoverageTable serial;
  util::Rng rng(7);
  for (int i = 0; i < 40; ++i) {
    const bool detected = rng.bernoulli(0.6);
    const auto latency =
        detected ? std::optional<sim::Duration>(
                       sim::Duration::micros(rng.uniform_int(50, 900)))
                 : std::nullopt;
    serial.add_result("fc", "det", detected, latency);
    shards[static_cast<std::size_t>(i) % 4].add_result("fc", "det", detected,
                                                       latency);
  }
  // Reversed shard order: counts must be exact, moments within fp noise.
  inject::CoverageTable merged;
  for (auto it = shards.rbegin(); it != shards.rend(); ++it) merged.merge(*it);
  EXPECT_EQ(merged.experiments("fc", "det"), serial.experiments("fc", "det"));
  EXPECT_EQ(merged.detections("fc", "det"), serial.detections("fc", "det"));
  EXPECT_EQ(merged.total_experiments(), serial.total_experiments());
  ASSERT_NE(merged.latency_stats("fc", "det"), nullptr);
  EXPECT_NEAR(merged.latency_stats("fc", "det")->mean(),
              serial.latency_stats("fc", "det")->mean(), 1e-9);
  EXPECT_NEAR(merged.latency_stats("fc", "det")->stddev(),
              serial.latency_stats("fc", "det")->stddev(), 1e-9);
  EXPECT_EQ(merged.latency_stats("fc", "det")->min(),
            serial.latency_stats("fc", "det")->min());
  EXPECT_EQ(merged.latency_stats("fc", "det")->max(),
            serial.latency_stats("fc", "det")->max());
}

TEST(CoverageTableMerge, DisjointCellsUnion) {
  inject::CoverageTable a, b;
  a.add_result("hang", "wdg", true, sim::Duration::micros(10));
  b.add_result("drop", "hw", false, std::nullopt);
  a.merge(b);
  EXPECT_EQ(a.fault_classes().size(), 2u);
  EXPECT_EQ(a.experiments("drop", "hw"), 1u);
  EXPECT_EQ(a.experiments("hang", "wdg"), 1u);
}

// --- make_specs --------------------------------------------------------------

TEST(CampaignRunnerSpecs, SeedsDeriveFromCampaignSeedAndIndex) {
  const auto specs = CampaignRunner::make_specs(5, 0xABCD);
  ASSERT_EQ(specs.size(), 5u);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(specs[i].run_index, i);
    EXPECT_EQ(specs[i].seed, util::derive_seed(0xABCD, i));
  }
}

// --- determinism across parallelism ------------------------------------------

TEST(CampaignRunnerDeterminism, SameCsvForOneAndFourJobs) {
  const auto specs = CampaignRunner::make_specs(24, 0xFEED);

  CampaignConfig serial_config;
  serial_config.jobs = 1;
  serial_config.seed = 0xFEED;
  CampaignRunner serial_runner(serial_config, synthetic_run);
  const CampaignOutcome serial = serial_runner.run(specs);
  const CampaignReport serial_report(specs, serial);

  CampaignConfig parallel_config;
  parallel_config.jobs = 4;
  parallel_config.seed = 0xFEED;
  CampaignRunner parallel_runner(parallel_config, synthetic_run);
  const CampaignOutcome parallel = parallel_runner.run(specs);
  const CampaignReport parallel_report(specs, parallel);

  // Byte-identical reduced CSV — the campaign-level determinism contract.
  EXPECT_EQ(coverage_csv(serial_report), coverage_csv(parallel_report));
  // Rows concatenate in run-index order regardless of completion order.
  ASSERT_EQ(parallel_report.rows().size(), 24u);
  EXPECT_EQ(serial_report.rows(), parallel_report.rows());
  for (std::size_t i = 0; i < parallel_report.rows().size(); ++i) {
    EXPECT_EQ(parallel_report.rows()[i][0], std::to_string(i));
  }
}

TEST(CampaignRunnerDeterminism, RepeatedParallelRunsAreStable) {
  const auto specs = CampaignRunner::make_specs(16, 3);
  CampaignConfig config;
  config.jobs = 3;
  CampaignRunner runner(config, synthetic_run);
  const CampaignOutcome first_outcome = runner.run(specs);
  const CampaignOutcome second_outcome = runner.run(specs);
  const CampaignReport first(specs, first_outcome);
  const CampaignReport second(specs, second_outcome);
  EXPECT_EQ(coverage_csv(first), coverage_csv(second));
}

// The report borrows each run's result from the outcome, so building one
// from a temporary outcome must not compile.
static_assert(!std::is_constructible_v<CampaignReport,
                                       const std::vector<RunSpec>&,
                                       CampaignOutcome&&>);
static_assert(std::is_constructible_v<CampaignReport,
                                      const std::vector<RunSpec>&,
                                      const CampaignOutcome&>);

// --- worker pool mechanics ---------------------------------------------------

TEST(CampaignRunner, ExecutesEveryRunExactlyOnce) {
  std::vector<std::atomic<int>> hits(50);
  CampaignConfig config;
  config.jobs = 4;
  CampaignRunner runner(config, [&](const RunContext& ctx) {
    hits[ctx.spec().run_index].fetch_add(1);
    return RunResult{};
  });
  const CampaignOutcome outcome = runner.run(CampaignRunner::make_specs(50, 0));
  EXPECT_EQ(outcome.results.size(), 50u);
  EXPECT_EQ(outcome.timeouts, 0u);
  EXPECT_EQ(outcome.errors, 0u);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(CampaignRunner, EmptyCampaignCompletes) {
  CampaignConfig config;
  config.jobs = 4;
  CampaignRunner runner(config,
                        [](const RunContext&) { return RunResult{}; });
  const CampaignOutcome outcome = runner.run({});
  EXPECT_TRUE(outcome.results.empty());
}

TEST(CampaignRunner, MoreJobsThanRunsCompletes) {
  CampaignConfig config;
  config.jobs = 8;
  CampaignRunner runner(config,
                        [](const RunContext&) { return RunResult{}; });
  const CampaignOutcome outcome = runner.run(CampaignRunner::make_specs(3, 0));
  EXPECT_EQ(outcome.results.size(), 3u);
}

TEST(CampaignRunner, ThrowingRunBecomesRunError) {
  CampaignConfig config;
  config.jobs = 2;
  CampaignRunner runner(config, [](const RunContext& ctx) {
    if (ctx.spec().run_index == 2) {
      throw std::runtime_error("injector exploded");
    }
    return synthetic_run(ctx);
  });
  const auto specs = CampaignRunner::make_specs(6, 1);
  const CampaignOutcome outcome = runner.run(specs);
  EXPECT_EQ(outcome.errors, 1u);
  EXPECT_EQ(outcome.results[2].status, RunStatus::kRunError);
  EXPECT_EQ(outcome.results[2].error, "injector exploded");
  const CampaignReport report(specs, outcome);
  EXPECT_EQ(report.completed_runs(), 5u);
  ASSERT_EQ(report.quarantined().size(), 1u);
  EXPECT_EQ(report.quarantined()[0].run_index, 2u);
}

// --- hang quarantine ---------------------------------------------------------

TEST(CampaignRunnerHangGuard, HungRunIsQuarantinedWithoutStallingCampaign) {
  // Run 1 "hangs" (deliberately never finishes on its own; it only leaves
  // the loop when the supervisor cancels it) while 11 healthy runs flow.
  constexpr std::size_t kHungRun = 1;
  CampaignConfig config;
  config.jobs = 2;
  config.seed = 9;
  config.run_deadline = std::chrono::milliseconds(100);
  config.supervisor_poll = std::chrono::milliseconds(5);
  CampaignRunner runner(config, [&](const RunContext& ctx) {
    if (ctx.spec().run_index == kHungRun) {
      while (!ctx.cancelled()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      // Late result after cancellation: must be discarded, not merged.
      RunResult late;
      late.coverage.add_result("late", "late", true, std::nullopt);
      return late;
    }
    return synthetic_run(ctx);
  });

  auto specs = CampaignRunner::make_specs(12, 9);
  specs[kHungRun].label = "deliberate_hang";
  const auto start = std::chrono::steady_clock::now();
  const CampaignOutcome outcome = runner.run(specs);
  const auto elapsed = std::chrono::steady_clock::now() - start;

  EXPECT_EQ(outcome.timeouts, 1u);
  EXPECT_EQ(outcome.results[kHungRun].status, RunStatus::kRunTimeout);
  EXPECT_NE(outcome.results[kHungRun].error.find("deliberate_hang"),
            std::string::npos);
  for (std::size_t i = 0; i < outcome.results.size(); ++i) {
    if (i == kHungRun) continue;
    EXPECT_EQ(outcome.results[i].status, RunStatus::kRunOk) << "run " << i;
  }
  // The campaign must not have serialized behind the hung run.
  EXPECT_LT(elapsed, std::chrono::seconds(30));

  const CampaignReport report(specs, outcome);
  EXPECT_EQ(report.completed_runs(), 11u);
  ASSERT_EQ(report.quarantined().size(), 1u);
  EXPECT_EQ(report.quarantined()[0].run_index, kHungRun);
  EXPECT_EQ(report.quarantined()[0].status, RunStatus::kRunTimeout);
  EXPECT_EQ(report.quarantined()[0].label, "deliberate_hang");
  // The hung run's late partial result must not appear in the reduction.
  EXPECT_EQ(report.coverage().experiments("late", "late"), 0u);
  EXPECT_NE(report.quarantine_summary().find("deliberate_hang"),
            std::string::npos);
}

TEST(CampaignRunnerHangGuard, QuarantineKeepsRemainingRunsDeterministic) {
  // The merged table with a quarantined run equals the table of the same
  // campaign with the hung run simply absent: quarantine == clean drop.
  auto run_or_hang = [](const RunContext& ctx) -> RunResult {
    if (ctx.spec().run_index == 3 && ctx.spec().label == "hang") {
      while (!ctx.cancelled()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      return RunResult{};
    }
    return synthetic_run(ctx);
  };

  CampaignConfig config;
  config.jobs = 3;
  config.run_deadline = std::chrono::milliseconds(80);
  config.supervisor_poll = std::chrono::milliseconds(5);
  CampaignRunner runner(config, run_or_hang);

  auto specs = CampaignRunner::make_specs(9, 21);
  specs[3].label = "hang";
  const CampaignOutcome with_hang = runner.run(specs);
  const CampaignReport hang_report(specs, with_hang);
  EXPECT_EQ(with_hang.timeouts, 1u);

  // Reference: same specs but run 3 contributes nothing (status ok runs
  // only); build it serially without run 3.
  inject::CoverageTable expected;
  for (const auto& spec : CampaignRunner::make_specs(9, 21)) {
    if (spec.run_index == 3) continue;
    expected.merge(synthetic_run(RunContext(spec, {})).coverage);
  }
  const inject::CoverageTable& got = hang_report.coverage();
  EXPECT_EQ(got.total_experiments(), expected.total_experiments());
  for (const auto& fc : expected.fault_classes()) {
    for (const auto& det : expected.detector_names()) {
      EXPECT_EQ(got.experiments(fc, det), expected.experiments(fc, det));
      EXPECT_EQ(got.detections(fc, det), expected.detections(fc, det));
    }
  }
}

// --- timing side channel -----------------------------------------------------

TEST(CampaignReportTiming, TimingCsvCarriesThroughputColumns) {
  const auto specs = CampaignRunner::make_specs(8, 0);
  CampaignConfig config;
  config.jobs = 2;
  CampaignRunner runner(config, synthetic_run);
  const CampaignOutcome outcome = runner.run(specs);
  const CampaignReport report(specs, outcome);
  std::ostringstream out;
  report.write_timing_csv(out, runner.config(), outcome);
  const std::string csv = out.str();
  EXPECT_NE(csv.find("jobs,seed,runs,completed,timeouts,errors,skipped,"
                     "wall_s,runs_per_s"),
            std::string::npos);
  EXPECT_NE(csv.find("\n2,0,8,8,0,0,0,"), std::string::npos);
  EXPECT_GT(outcome.runs_per_second(), 0.0);
}

// --- telemetry ---------------------------------------------------------------

// Emits a deterministic event trail (sim-time stamped, seeded by the run
// index) into whatever bus the worker installed for this run.
RunResult telemetric_run(const RunContext& ctx) {
  const auto base = static_cast<std::int64_t>(ctx.spec().run_index) * 1'000;
  telemetry::Event applied;
  applied.kind = telemetry::EventKind::kFaultApplied;
  applied.component = telemetry::Component::kInjector;
  applied.time = sim::SimTime(base);
  applied.injection = InjectionId(0);
  applied.detail = "synthetic_fault";
  telemetry::emit(applied);

  telemetry::Event detected;
  detected.kind = telemetry::EventKind::kErrorDetected;
  detected.component = telemetry::Component::kHeartbeatUnit;
  detected.time = sim::SimTime(base + 40);
  detected.detail = "aliveness";
  telemetry::emit(detected);
  return synthetic_run(ctx);
}

TEST(CampaignTelemetry, EventsAreCapturedPerRun) {
  CampaignConfig config;
  config.jobs = 2;
  CampaignRunner runner(config, telemetric_run);
  const auto specs = CampaignRunner::make_specs(6, 5);
  const CampaignOutcome outcome = runner.run(specs);
  for (std::size_t i = 0; i < outcome.results.size(); ++i) {
    const auto& events = outcome.results[i].events;
    ASSERT_EQ(events.size(), 2u) << "run " << i;
    // Per-run sequence restarts at 0 and the bus back-fills the injection
    // correlation from the applied fault.
    EXPECT_EQ(events[0].seq, 0u);
    EXPECT_EQ(events[1].seq, 1u);
    EXPECT_EQ(events[1].injection, InjectionId(0));
    EXPECT_EQ(events[0].time.as_micros(), static_cast<std::int64_t>(i) * 1'000);
  }
}

TEST(CampaignTelemetry, EventLogAndMetricsAreJobsInvariant) {
  const auto specs = CampaignRunner::make_specs(10, 3);
  std::string logs[2], metrics[2];
  const unsigned jobs[2] = {1, 4};
  for (int i = 0; i < 2; ++i) {
    CampaignConfig config;
    config.jobs = jobs[i];
    CampaignRunner runner(config, telemetric_run);
    const CampaignOutcome outcome = runner.run(specs);
    const CampaignReport report(specs, outcome);
    std::ostringstream log, prom;
    report.write_event_log(log);
    report.write_metrics(prom);
    logs[i] = log.str();
    metrics[i] = prom.str();
  }
  EXPECT_EQ(logs[0], logs[1]);
  EXPECT_EQ(metrics[0], metrics[1]);
  EXPECT_NE(logs[0].find("# run index=0"), std::string::npos);
  EXPECT_NE(logs[0].find("synthetic_fault"), std::string::npos);
  EXPECT_NE(metrics[0].find("easis_campaign_runs_total 10"), std::string::npos);
  EXPECT_NE(metrics[0].find("easis_fault_to_detection_latency_ms_bucket"),
            std::string::npos);
}

TEST(CampaignTelemetry, HungRunLeavesFlightRecorderSnapshot) {
  // The hung run emits its trail and then spins: the full log never comes
  // back, but the supervisor must snapshot the flight-recorder ring into
  // the quarantined result.
  constexpr std::size_t kHungRun = 2;
  CampaignConfig config;
  config.jobs = 2;
  config.run_deadline = std::chrono::milliseconds(100);
  config.supervisor_poll = std::chrono::milliseconds(5);
  CampaignRunner runner(config, [&](const RunContext& ctx) {
    if (ctx.spec().run_index == kHungRun) {
      telemetry::Event last_words;
      last_words.kind = telemetry::EventKind::kErrorDetected;
      last_words.component = telemetry::Component::kDeadlineUnit;
      last_words.time = sim::SimTime(123);
      last_words.detail = "about to hang";
      telemetry::emit(last_words);
      while (!ctx.cancelled()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      return RunResult{};
    }
    return telemetric_run(ctx);
  });

  auto specs = CampaignRunner::make_specs(6, 11);
  specs[kHungRun].label = "deliberate_hang";
  const CampaignOutcome outcome = runner.run(specs);
  ASSERT_EQ(outcome.results[kHungRun].status, RunStatus::kRunTimeout);
  const auto& ring = outcome.results[kHungRun].events;
  ASSERT_FALSE(ring.empty());
  EXPECT_EQ(ring.back().detail, "about to hang");

  const CampaignReport report(specs, outcome);
  const auto candidates = report.flight_dump_candidates();
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(candidates[0], kHungRun);
  std::ostringstream dump;
  report.write_flight_dump(dump, kHungRun);
  EXPECT_NE(dump.str().find("deliberate_hang"), std::string::npos);
  EXPECT_NE(dump.str().find("about to hang"), std::string::npos);
  EXPECT_NE(dump.str().find("status=timeout"), std::string::npos);
}

TEST(CampaignTelemetry, HungRunFlightDumpNotesDroppedEvents) {
  // A hung run that emitted more than its flight record holds keeps the
  // newest 256 events, and its dump says older ones were dropped.
  CampaignConfig config;
  config.jobs = 1;
  config.run_deadline = std::chrono::milliseconds(100);
  config.supervisor_poll = std::chrono::milliseconds(5);
  CampaignRunner runner(config, [&](const RunContext& ctx) {
    for (int i = 0; i < 300; ++i) {
      telemetry::Event event;
      event.kind = telemetry::EventKind::kErrorDetected;
      event.component = telemetry::Component::kDeadlineUnit;
      event.time = sim::SimTime(i);
      event.detail = "event " + std::to_string(i);
      telemetry::emit(event);
    }
    while (!ctx.cancelled()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return RunResult{};
  });

  const auto specs = CampaignRunner::make_specs(1, 5);
  const CampaignOutcome outcome = runner.run(specs);
  const RunResult& hung = outcome.results[0];
  ASSERT_EQ(hung.status, RunStatus::kRunTimeout);
  ASSERT_EQ(hung.events.size(), 256u);
  EXPECT_TRUE(hung.events_truncated);
  EXPECT_EQ(hung.events.front().detail, "event 44");
  EXPECT_EQ(hung.events.back().detail, "event 299");

  const CampaignReport report(specs, outcome);
  std::ostringstream dump;
  report.write_flight_dump(dump, 0);
  EXPECT_NE(dump.str().find("256 event(s) (older events dropped by the ring)"),
            std::string::npos);
}

TEST(CampaignTelemetry, MisdetectingRunBecomesDumpCandidate) {
  CampaignConfig config;
  config.jobs = 1;
  CampaignRunner runner(config, [](const RunContext& ctx) {
    RunResult result = telemetric_run(ctx);
    if (ctx.spec().run_index == 1) {
      result.misdetect = "no detector fired";
    }
    return result;
  });
  const auto specs = CampaignRunner::make_specs(3, 7);
  const CampaignOutcome outcome = runner.run(specs);
  const CampaignReport report(specs, outcome);
  const auto candidates = report.flight_dump_candidates();
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(candidates[0], 1u);
  std::ostringstream dump;
  report.write_flight_dump(dump, 1);
  EXPECT_NE(dump.str().find("misdetect: no detector fired"),
            std::string::npos);
}

TEST(CampaignTelemetry, CleanCampaignWritesNoFlightDumps) {
  CampaignConfig config;
  config.jobs = 1;
  CampaignRunner runner(config, telemetric_run);
  const auto specs = CampaignRunner::make_specs(3, 7);
  const CampaignOutcome outcome = runner.run(specs);
  const CampaignReport report(specs, outcome);
  EXPECT_TRUE(report.flight_dump_candidates().empty());
  // No candidates — the prefix is never used, so no files appear.
  EXPECT_EQ(report.write_flight_dumps("/nonexistent-dir/never-touched"), 0u);
}

}  // namespace
}  // namespace easis
