// Tests for the baseline monitors: hardware watchdog, deadline monitoring,
// execution-time monitoring, CFCSS signature checking.
#include <gtest/gtest.h>

#include <vector>

#include "baseline/cfcss.hpp"
#include "baseline/deadline_monitor.hpp"
#include "baseline/exec_time_monitor.hpp"
#include "baseline/hw_watchdog.hpp"
#include "os/kernel.hpp"
#include "sim/engine.hpp"

namespace easis::baseline {
namespace {

using sim::Duration;
using sim::Engine;
using sim::SimTime;

// --- HardwareWatchdog -----------------------------------------------------------

TEST(HardwareWatchdog, ExpiresWithoutKick) {
  Engine engine;
  HardwareWatchdog wd(engine, Duration::millis(50));
  std::vector<SimTime> expiries;
  wd.set_expire_callback([&](SimTime t) { expiries.push_back(t); });
  wd.start();
  engine.run_until(SimTime(60'000));
  ASSERT_EQ(expiries.size(), 1u);
  EXPECT_EQ(expiries[0], SimTime(50'000));
}

TEST(HardwareWatchdog, KickedInTimeNeverExpires) {
  Engine engine;
  HardwareWatchdog wd(engine, Duration::millis(50));
  wd.set_expire_callback([](SimTime) { FAIL() << "must not expire"; });
  wd.start();
  for (int i = 1; i <= 10; ++i) {
    engine.schedule_at(SimTime(i * 20'000), [&] { wd.kick(); });
  }
  engine.run_until(SimTime(200'000));
  EXPECT_EQ(wd.expirations(), 0u);
}

TEST(HardwareWatchdog, ReArmsAfterExpiry) {
  Engine engine;
  HardwareWatchdog wd(engine, Duration::millis(50));
  wd.start();
  engine.run_until(SimTime(160'000));
  EXPECT_EQ(wd.expirations(), 3u);  // 50, 100, 150 ms
}

TEST(HardwareWatchdog, WindowModeFlagsEarlyKick) {
  Engine engine;
  HardwareWatchdog wd(engine, Duration::millis(50), Duration::millis(20));
  wd.start();
  engine.schedule_at(SimTime(5'000), [&] { wd.kick(); });  // too early
  engine.run_until(SimTime(10'000));
  EXPECT_EQ(wd.early_kicks(), 1u);
}

TEST(HardwareWatchdog, StopDisarms) {
  Engine engine;
  HardwareWatchdog wd(engine, Duration::millis(50));
  wd.start();
  wd.stop();
  EXPECT_EQ(engine.pending_events(), 0u);
  engine.run_until(SimTime(500'000));
  EXPECT_EQ(wd.expirations(), 0u);
}

TEST(HardwareWatchdog, BadConfigRejected) {
  Engine engine;
  EXPECT_THROW(HardwareWatchdog(engine, Duration::zero()),
               std::invalid_argument);
  EXPECT_THROW(
      HardwareWatchdog(engine, Duration::millis(10), Duration::millis(10)),
      std::invalid_argument);
}

TEST(HardwareWatchdogService, KickerTaskServicesWatchdog) {
  Engine engine;
  os::Kernel kernel(engine);
  HardwareWatchdog wd(engine, Duration::millis(50));
  const CounterId counter = kernel.create_counter(
      {.name = "sys", .tick = Duration::millis(1)});
  HardwareWatchdogService service(kernel, wd, counter, /*priority=*/0,
                                  /*period_ticks=*/20);
  kernel.start();
  service.arm();
  wd.start();
  engine.run_until(SimTime(500'000));
  EXPECT_EQ(wd.expirations(), 0u);
}

TEST(HardwareWatchdogService, HoggedCpuStarvesKickerAndFires) {
  Engine engine;
  os::Kernel kernel(engine);
  HardwareWatchdog wd(engine, Duration::millis(50));
  const CounterId counter = kernel.create_counter(
      {.name = "sys", .tick = Duration::millis(1)});
  HardwareWatchdogService service(kernel, wd, counter, /*priority=*/0, 20);
  // A higher-priority hog consumes the whole CPU.
  os::TaskConfig hog_cfg;
  hog_cfg.name = "hog";
  hog_cfg.priority = 10;
  const TaskId hog = kernel.create_task(hog_cfg);
  kernel.set_job_factory(hog, [](os::Job& job) {
    os::Segment s;
    s.cost = Duration::seconds(100);
    job.push_back(std::move(s));
  });
  kernel.start();
  service.arm();
  wd.start();
  kernel.activate_task(hog);
  engine.run_until(SimTime(300'000));
  EXPECT_GT(wd.expirations(), 0u);
}

// --- DeadlineMonitor ----------------------------------------------------------------

class DeadlineTest : public ::testing::Test {
 protected:
  Engine engine;
  os::Kernel kernel{engine};

  TaskId make_task(const std::string& name, os::Priority priority,
                   Duration cost) {
    os::TaskConfig config;
    config.name = name;
    config.priority = priority;
    const TaskId id = kernel.create_task(config);
    kernel.set_job_factory(id, [cost](os::Job& job) {
      os::Segment s;
      s.cost = cost;
      job.push_back(std::move(s));
    });
    return id;
  }
};

TEST_F(DeadlineTest, MetDeadlineNoViolation) {
  const TaskId t = make_task("t", 5, Duration::millis(2));
  DeadlineMonitor monitor(kernel);
  monitor.set_deadline(t, Duration::millis(5));
  kernel.start();
  kernel.activate_task(t);
  engine.run_until(SimTime(100'000));
  EXPECT_EQ(monitor.violations(t), 0u);
}

TEST_F(DeadlineTest, MissedDeadlineFlagged) {
  const TaskId t = make_task("t", 5, Duration::millis(10));
  DeadlineMonitor monitor(kernel);
  std::vector<TaskId> violations;
  monitor.set_violation_callback(
      [&](TaskId id, SimTime) { violations.push_back(id); });
  monitor.set_deadline(t, Duration::millis(5));
  kernel.start();
  kernel.activate_task(t);
  engine.run_until(SimTime(100'000));
  EXPECT_EQ(monitor.violations(t), 1u);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0], t);
}

TEST_F(DeadlineTest, PreemptionInducedMissDetected) {
  const TaskId victim = make_task("victim", 1, Duration::millis(3));
  const TaskId hog = make_task("hog", 9, Duration::millis(20));
  DeadlineMonitor monitor(kernel);
  monitor.set_deadline(victim, Duration::millis(5));
  kernel.start();
  kernel.activate_task(hog);
  kernel.activate_task(victim);
  engine.run_until(SimTime(100'000));
  EXPECT_EQ(monitor.violations(victim), 1u);
}

TEST_F(DeadlineTest, UnmonitoredTaskIgnored) {
  const TaskId t = make_task("t", 5, Duration::millis(10));
  DeadlineMonitor monitor(kernel);
  kernel.start();
  kernel.activate_task(t);
  engine.run_until(SimTime(100'000));
  EXPECT_EQ(monitor.total_violations(), 0u);
}

TEST_F(DeadlineTest, TaskGranularityMissesRunnableFault) {
  // A job where one "runnable" is dropped but the task still completes in
  // time: deadline monitoring cannot see it (the paper's core argument).
  int first_runs = 0;
  os::TaskConfig config;
  config.name = "t";
  config.priority = 5;
  const TaskId t = kernel.create_task(config);
  kernel.set_job_factory(t, [&](os::Job& job) {
    // The dropped runnable: zero segments contributed.
    os::Segment s;
    s.cost = Duration::millis(1);
    s.on_complete = [&] { ++first_runs; };
    job.push_back(s);
  });
  DeadlineMonitor monitor(kernel);
  monitor.set_deadline(t, Duration::millis(5));
  kernel.start();
  kernel.activate_task(t);
  engine.run_until(SimTime(100'000));
  EXPECT_EQ(monitor.violations(t), 0u);  // no violation despite the fault
}

// --- ExecutionTimeMonitor --------------------------------------------------------------

TEST_F(DeadlineTest, ExecBudgetRespectedNoViolation) {
  const TaskId t = make_task("t", 5, Duration::millis(2));
  ExecutionTimeMonitor monitor(kernel);
  monitor.set_budget(t, Duration::millis(5));
  kernel.start();
  kernel.activate_task(t);
  engine.run_until(SimTime(100'000));
  EXPECT_EQ(monitor.violations(t), 0u);
}

TEST_F(DeadlineTest, ExecBudgetOverrunFlagged) {
  const TaskId t = make_task("t", 5, Duration::millis(10));
  ExecutionTimeMonitor monitor(kernel);
  monitor.set_budget(t, Duration::millis(5));
  kernel.start();
  kernel.activate_task(t);
  engine.run_until(SimTime(100'000));
  EXPECT_EQ(monitor.violations(t), 1u);
}

TEST_F(DeadlineTest, PreemptionDoesNotCountAgainstBudget) {
  // victim consumes 3 ms of CPU but is preempted for 20 ms in between:
  // wall time exceeds the budget, consumed time does not.
  const TaskId victim = make_task("victim", 1, Duration::millis(3));
  const TaskId hog = make_task("hog", 9, Duration::millis(20));
  ExecutionTimeMonitor monitor(kernel);
  monitor.set_budget(victim, Duration::millis(5));
  kernel.start();
  kernel.activate_task(victim);
  engine.schedule_at(SimTime(1'000), [&] { kernel.activate_task(hog); });
  engine.run_until(SimTime(100'000));
  EXPECT_EQ(monitor.violations(victim), 0u);
}

TEST_F(DeadlineTest, KillOnViolationTerminatesTask) {
  const TaskId t = make_task("t", 5, Duration::millis(50));
  ExecutionTimeMonitor monitor(kernel);
  monitor.set_budget(t, Duration::millis(5));
  monitor.set_kill_on_violation(true);
  kernel.start();
  kernel.activate_task(t);
  engine.run_until(SimTime(6'000));
  EXPECT_EQ(monitor.violations(t), 1u);
  EXPECT_EQ(kernel.task_state(t), os::TaskState::kSuspended);
  EXPECT_EQ(kernel.jobs_completed(t), 0u);
}

TEST_F(DeadlineTest, ViolationReportedOncePerJob) {
  const TaskId t = make_task("t", 5, Duration::millis(50));
  ExecutionTimeMonitor monitor(kernel);
  monitor.set_budget(t, Duration::millis(5));
  kernel.start();
  kernel.activate_task(t);
  engine.run_until(SimTime(100'000));
  EXPECT_EQ(monitor.violations(t), 1u);
}

// --- CFCSS --------------------------------------------------------------------------------

class CfcssTest : public ::testing::Test {
 protected:
  CfcssChecker checker;

  // Diamond: 0 -> 1, 0 -> 2, {1,2} -> 3 (fan-in), 3 -> 0 (loop).
  void SetUp() override {
    checker.add_node(0, {});
    checker.add_node(1, {0});
    checker.add_node(2, {0});
    checker.add_node(3, {1, 2});
    checker.compile();
  }
};

TEST_F(CfcssTest, ValidPathThroughLeftBranch) {
  EXPECT_TRUE(checker.enter(0));
  checker.prepare_branch(1);
  EXPECT_TRUE(checker.enter(1));
  checker.prepare_branch(3);
  EXPECT_TRUE(checker.enter(3));
  EXPECT_EQ(checker.errors(), 0u);
}

TEST_F(CfcssTest, ValidPathThroughRightBranch) {
  EXPECT_TRUE(checker.enter(0));
  checker.prepare_branch(2);
  EXPECT_TRUE(checker.enter(2));
  checker.prepare_branch(3);
  EXPECT_TRUE(checker.enter(3));
  EXPECT_EQ(checker.errors(), 0u);
}

TEST_F(CfcssTest, IllegalJumpDetected) {
  EXPECT_TRUE(checker.enter(0));
  // Spontaneous jump from 0 to 3: the D assignment lives in blocks 1/2 and
  // is never executed, so the signature check must fail.
  EXPECT_FALSE(checker.enter(3));
  EXPECT_EQ(checker.errors(), 1u);
}

TEST_F(CfcssTest, SkippedPrepareOnFanInDetected) {
  EXPECT_TRUE(checker.enter(0));
  checker.prepare_branch(2);
  EXPECT_TRUE(checker.enter(2));
  // Jump 2 -> 3 skipping 2's D assignment: D stays at the stale value that
  // only matches the base predecessor (1), so the mismatch is detected.
  EXPECT_FALSE(checker.enter(3));
}

TEST_F(CfcssTest, WrongDirectJumpBetweenSiblings) {
  EXPECT_TRUE(checker.enter(0));
  checker.prepare_branch(1);
  EXPECT_TRUE(checker.enter(1));
  // 1 -> 2 is not an edge.
  EXPECT_FALSE(checker.enter(2));
}

TEST_F(CfcssTest, UnknownNodeDetected) {
  EXPECT_TRUE(checker.enter(0));
  EXPECT_FALSE(checker.enter(42));
  EXPECT_EQ(checker.errors(), 1u);
}

TEST_F(CfcssTest, RestartAllowsReentry) {
  EXPECT_TRUE(checker.enter(0));
  checker.prepare_branch(1);
  EXPECT_TRUE(checker.enter(1));
  checker.restart();
  EXPECT_TRUE(checker.enter(0));
  EXPECT_EQ(checker.errors(), 0u);
}

TEST_F(CfcssTest, LoopBackEdgeValid) {
  EXPECT_TRUE(checker.enter(0));
  checker.prepare_branch(1);
  EXPECT_TRUE(checker.enter(1));
  checker.prepare_branch(3);
  EXPECT_TRUE(checker.enter(3));
  // 3 -> 0: 0 is an entry node (no predecessors), entry resets G.
  EXPECT_TRUE(checker.enter(0));
}

TEST_F(CfcssTest, ErrorCallbackInvoked) {
  std::vector<CfcssChecker::NodeId> flagged;
  checker.set_error_callback(
      [&](CfcssChecker::NodeId n) { flagged.push_back(n); });
  checker.enter(0);
  checker.enter(3);  // illegal
  ASSERT_EQ(flagged.size(), 1u);
  EXPECT_EQ(flagged[0], 3u);
}

TEST_F(CfcssTest, SignaturesAreUnique) {
  EXPECT_NE(checker.signature(0), checker.signature(1));
  EXPECT_NE(checker.signature(1), checker.signature(2));
  EXPECT_NE(checker.signature(2), checker.signature(3));
}

TEST(CfcssConfig, DuplicateNodeRejected) {
  CfcssChecker checker;
  checker.add_node(0, {});
  EXPECT_THROW(checker.add_node(0, {}), std::logic_error);
}

TEST(CfcssConfig, CompileTwiceRejected) {
  CfcssChecker checker;
  checker.add_node(0, {});
  checker.compile();
  EXPECT_THROW(checker.compile(), std::logic_error);
  EXPECT_THROW(checker.add_node(1, {}), std::logic_error);
}

TEST(CfcssConfig, UnknownPredecessorRejected) {
  CfcssChecker checker;
  checker.add_node(1, {0});  // 0 never declared
  EXPECT_THROW(checker.compile(), std::logic_error);
}

TEST(CfcssChecks, CheckCounterAdvances) {
  CfcssChecker checker;
  checker.add_node(0, {});
  checker.add_node(1, {0});
  checker.compile();
  checker.enter(0);
  checker.prepare_branch(1);
  checker.enter(1);
  EXPECT_EQ(checker.checks(), 2u);
}

}  // namespace
}  // namespace easis::baseline
