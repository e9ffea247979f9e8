// Unit tests for the error injector: scheduling, apply/revert, fault
// factories, detection recording and coverage tables.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "inject/campaign.hpp"
#include "inject/faults.hpp"
#include "inject/injector.hpp"
#include "os/kernel.hpp"
#include "rte/rte.hpp"
#include "sim/engine.hpp"

namespace easis::inject {
namespace {

using sim::Duration;
using sim::Engine;
using sim::SimTime;

class InjectTest : public ::testing::Test {
 protected:
  Engine engine;
  os::Kernel kernel{engine};
  rte::Rte rte{kernel};
  TaskId task;
  RunnableId a, b;
  int a_runs = 0, b_runs = 0;

  void SetUp() override {
    const ApplicationId app = rte.register_application("App");
    const ComponentId comp = rte.register_component(app, "C");
    rte::RunnableSpec sa;
    sa.name = "A";
    sa.execution_time = Duration::micros(100);
    sa.body = [this] { ++a_runs; };
    a = rte.register_runnable(comp, sa);
    rte::RunnableSpec sb;
    sb.name = "B";
    sb.execution_time = Duration::micros(100);
    sb.body = [this] { ++b_runs; };
    b = rte.register_runnable(comp, sb);
    os::TaskConfig tc;
    tc.name = "T";
    tc.priority = 5;
    task = kernel.create_task(tc);
    rte.map_runnable(a, task);
    rte.map_runnable(b, task);
    rte.finalize();
    kernel.start();
  }

  void run_job_at(std::int64_t t_micros) {
    engine.schedule_at(SimTime(t_micros),
                       [this] { kernel.activate_task(task); });
  }
};

TEST_F(InjectTest, InjectionAppliesAtConfiguredTime) {
  ErrorInjector injector(engine);
  bool applied = false;
  Injection inj;
  inj.name = "marker";
  inj.start = SimTime(500);
  inj.apply = [&] { applied = true; };
  injector.add(std::move(inj));
  injector.arm();
  engine.run_until(SimTime(400));
  EXPECT_FALSE(applied);
  engine.run_until(SimTime(600));
  EXPECT_TRUE(applied);
  EXPECT_EQ(injector.applied(), 1u);
}

TEST_F(InjectTest, TransientInjectionReverts) {
  ErrorInjector injector(engine);
  int state = 0;
  Injection inj;
  inj.name = "pulse";
  inj.start = SimTime(100);
  inj.duration = Duration::micros(200);
  inj.apply = [&] { state = 1; };
  inj.revert = [&] { state = 2; };
  injector.add(std::move(inj));
  injector.arm();
  engine.run_until(SimTime(150));
  EXPECT_EQ(state, 1);
  engine.run_until(SimTime(400));
  EXPECT_EQ(state, 2);
  EXPECT_EQ(injector.reverted(), 1u);
}

TEST_F(InjectTest, PermanentInjectionNeverReverts) {
  ErrorInjector injector(engine);
  int reverts = 0;
  Injection inj;
  inj.name = "permanent";
  inj.start = SimTime(100);
  inj.revert = [&] { ++reverts; };
  injector.add(std::move(inj));
  injector.arm();
  engine.run_until(SimTime(100'000));
  EXPECT_EQ(reverts, 0);
}

TEST_F(InjectTest, AddAfterArmRejected) {
  ErrorInjector injector(engine);
  injector.arm();
  EXPECT_THROW(injector.add(Injection{}), std::logic_error);
  EXPECT_THROW(injector.arm(), std::logic_error);
}

TEST_F(InjectTest, ExecutionStretchSlowsRunnable) {
  ErrorInjector injector(engine);
  injector.add(make_execution_stretch(rte, a, 10.0, SimTime(0),
                                      Duration::millis(5)));
  injector.arm();
  run_job_at(100);
  engine.run_until(SimTime(3'000));
  // a takes 1000us instead of 100us; job = 1000 + 100.
  EXPECT_EQ(a_runs, 1);
  EXPECT_EQ(kernel.total_consumed(task), Duration::micros(1100));
  engine.run_until(SimTime(10'000));  // revert happened at 5ms
  run_job_at(10'100);
  engine.run_until(SimTime(12'000));
  EXPECT_EQ(kernel.total_consumed(task), Duration::micros(1300));
}

TEST_F(InjectTest, RunnableDropRemovesFromJob) {
  ErrorInjector injector(engine);
  injector.add(make_runnable_drop(rte, a, SimTime(0), Duration::zero()));
  injector.arm();
  run_job_at(100);
  engine.run_until(SimTime(5'000));
  EXPECT_EQ(a_runs, 0);
  EXPECT_EQ(b_runs, 1);
}

TEST_F(InjectTest, RunnableRepeatMultipliesExecutions) {
  ErrorInjector injector(engine);
  injector.add(make_runnable_repeat(rte, a, 4, SimTime(0), Duration::zero()));
  injector.arm();
  run_job_at(100);
  engine.run_until(SimTime(5'000));
  EXPECT_EQ(a_runs, 4);
  EXPECT_EQ(b_runs, 1);
}

TEST_F(InjectTest, HeartbeatSuppressionSilencesGlue) {
  int beats = 0;
  rte.add_heartbeat_listener([&](RunnableId, TaskId, SimTime) { ++beats; });
  ErrorInjector injector(engine);
  injector.add(
      make_heartbeat_suppression(rte, a, SimTime(0), Duration::zero()));
  injector.arm();
  run_job_at(100);
  engine.run_until(SimTime(5'000));
  EXPECT_EQ(a_runs, 1);  // body still runs
  EXPECT_EQ(beats, 1);   // only b's heartbeat
}

TEST_F(InjectTest, InvalidBranchRewritesSequence) {
  std::vector<RunnableId> executed;
  rte.add_heartbeat_listener(
      [&](RunnableId r, TaskId, SimTime) { executed.push_back(r); });
  ErrorInjector injector(engine);
  // After a, branch (wrongly) to a again instead of b.
  injector.add(make_invalid_branch(rte, task, a, a, SimTime(0),
                                   Duration::zero()));
  injector.arm();
  run_job_at(100);
  engine.run_until(SimTime(5'000));
  ASSERT_EQ(executed.size(), 2u);
  EXPECT_EQ(executed[0], a);
  EXPECT_EQ(executed[1], a);  // b was skipped
}

TEST_F(InjectTest, SequenceSwapExchangesRunnables) {
  std::vector<RunnableId> executed;
  rte.add_heartbeat_listener(
      [&](RunnableId r, TaskId, SimTime) { executed.push_back(r); });
  ErrorInjector injector(engine);
  injector.add(make_sequence_swap(rte, task, a, b, SimTime(0),
                                  Duration::zero()));
  injector.arm();
  run_job_at(100);
  engine.run_until(SimTime(5'000));
  ASSERT_EQ(executed.size(), 2u);
  EXPECT_EQ(executed[0], b);
  EXPECT_EQ(executed[1], a);
}

TEST_F(InjectTest, TaskHangStretchesEverything) {
  ErrorInjector injector(engine);
  injector.add(make_task_hang(rte, task, SimTime(0), Duration::zero()));
  injector.arm();
  run_job_at(100);
  engine.run_until(SimTime(10'000'000));  // 10 s: job still not done
  EXPECT_EQ(a_runs, 0);
  EXPECT_EQ(kernel.task_state(task), os::TaskState::kRunning);
}

TEST_F(InjectTest, PeriodScaleReArmsAlarm) {
  const CounterId counter = kernel.create_counter(
      {.name = "sys", .tick = Duration::millis(1)});
  const AlarmId alarm =
      kernel.create_alarm(counter, os::AlarmActionActivateTask{task});
  kernel.set_rel_alarm(alarm, 10, 10);
  ErrorInjector injector(engine);
  injector.add(make_period_scale(kernel, alarm, 10, 4.0,
                                 SimTime(30'000), Duration::zero()));
  injector.arm();
  engine.run_until(SimTime(30'500));
  const int jobs_before = static_cast<int>(kernel.jobs_completed(task));
  EXPECT_EQ(jobs_before, 3);  // 10, 20, 30 ms
  engine.run_until(SimTime(110'500));
  // Scaled to 40 ms: next activations at 70 ms and 110 ms.
  EXPECT_EQ(kernel.jobs_completed(task), 5u);
}

// --- DetectionRecorder / CoverageTable --------------------------------------

TEST(DetectionRecorder, FirstDetectionWins) {
  DetectionRecorder rec;
  rec.add_detector("swd");
  rec.mark_injection(SimTime(100));
  EXPECT_FALSE(rec.detected("swd"));
  rec.record("swd", SimTime(150));
  rec.record("swd", SimTime(200));
  ASSERT_TRUE(rec.detected("swd"));
  EXPECT_EQ(rec.latency("swd")->as_micros(), 50);
  // A run's reduction keeps the first detection's latency.
  CoverageTable table;
  table.add_run("hang", rec);
  EXPECT_EQ(table.detections("hang", "swd"), 1u);
  ASSERT_NE(table.latency_stats("hang", "swd"), nullptr);
  EXPECT_DOUBLE_EQ(table.latency_stats("hang", "swd")->mean(), 0.05);
}

TEST(DetectionRecorder, ResetKeepsDetectors) {
  DetectionRecorder rec({"swd", "hw_wd"});
  rec.record("swd", SimTime(1));
  rec.reset();
  EXPECT_FALSE(rec.detected("swd"));
  EXPECT_EQ(rec.detectors(), (std::vector<std::string>{"hw_wd", "swd"}));
}

TEST(DetectionRecorder, UnknownDetectorAutoRegisters) {
  DetectionRecorder rec;
  rec.mark_injection(SimTime(0));
  rec.record("late", SimTime(5));
  EXPECT_TRUE(rec.detected("late"));
  // The reduction counts an auto-registered detector like a declared one.
  CoverageTable table;
  table.add_run("drop", rec);
  EXPECT_EQ(table.detector_names(), (std::vector<std::string>{"late"}));
  EXPECT_DOUBLE_EQ(table.coverage("drop", "late"), 1.0);
}

TEST(CoverageTable, AggregatesCoverageAndLatency) {
  CoverageTable table;
  table.add_result("hang", "swd", true, Duration::millis(20));
  table.add_result("hang", "swd", true, Duration::millis(40));
  // A run nothing caught: one miss per declared detector.
  table.add_run("hang", DetectionRecorder({"swd", "hw_wd"}));
  EXPECT_EQ(table.experiments("hang", "swd"), 3u);
  EXPECT_EQ(table.detections("hang", "swd"), 2u);
  EXPECT_NEAR(table.coverage("hang", "swd"), 2.0 / 3.0, 1e-9);
  ASSERT_NE(table.latency_stats("hang", "swd"), nullptr);
  EXPECT_DOUBLE_EQ(table.latency_stats("hang", "swd")->mean(), 30.0);
  EXPECT_DOUBLE_EQ(table.coverage("hang", "hw_wd"), 0.0);
  EXPECT_EQ(table.latency_stats("hang", "hw_wd"), nullptr);
}

TEST(CoverageTable, PrintsAlignedTable) {
  CoverageTable table;
  table.add_result("hang", "swd", true, Duration::millis(20));
  table.add_result("drop", "swd", false, std::nullopt);
  std::ostringstream out;
  table.print(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("fault class"), std::string::npos);
  EXPECT_NE(text.find("hang"), std::string::npos);
  EXPECT_NE(text.find("drop"), std::string::npos);
  EXPECT_NE(text.find("swd"), std::string::npos);
}

TEST(CoverageTable, EmptyCellsRenderDash) {
  CoverageTable table;
  table.add_result("hang", "swd", true, Duration::millis(1));
  table.add_result("drop", "hw", true, Duration::millis(1));
  std::ostringstream out;
  table.print(out);
  EXPECT_NE(out.str().find('-'), std::string::npos);
}

}  // namespace
}  // namespace easis::inject
