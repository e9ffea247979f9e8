// Integration tests for the SoftwareWatchdog facade: unit wiring, the
// Figure-6 collaboration logic, fault-treatment hooks, and the OS-level
// WatchdogService (periodic main function, heartbeat glue, boundaries).
#include <gtest/gtest.h>

#include <vector>

#include "os/kernel.hpp"
#include "rte/rte.hpp"
#include "sim/engine.hpp"
#include "wdg/service.hpp"
#include "wdg/watchdog.hpp"

namespace easis::wdg {
namespace {

using sim::Duration;
using sim::Engine;
using sim::SimTime;

WatchdogConfig test_config() {
  WatchdogConfig config;
  config.check_period = Duration::millis(10);
  config.aliveness_threshold = 3;
  config.arrival_rate_threshold = 3;
  config.program_flow_threshold = 3;
  config.accumulated_aliveness_threshold = 3;
  config.ecu_faulty_task_limit = 2;
  return config;
}

RunnableMonitor monitor(std::uint32_t runnable, std::uint32_t task,
                        std::uint32_t app, std::uint32_t cycles = 4,
                        std::uint32_t min_hb = 2,
                        std::uint32_t max_arrivals = 6,
                        bool program_flow = true) {
  RunnableMonitor m;
  m.runnable = RunnableId(runnable);
  m.task = TaskId(task);
  m.application = ApplicationId(app);
  m.name = "r" + std::to_string(runnable);
  m.aliveness_cycles = cycles;
  m.min_heartbeats = min_hb;
  m.arrival_cycles = cycles;
  m.max_arrivals = max_arrivals;
  m.program_flow = program_flow;
  return m;
}

class WatchdogTest : public ::testing::Test {
 protected:
  SoftwareWatchdog wd{test_config()};
  std::vector<ErrorReport> errors;

  void SetUp() override {
    wd.add_error_listener(
        [this](const ErrorReport& report) { errors.push_back(report); });
  }

  void ticks(int n, int start = 0) {
    for (int i = 0; i < n; ++i) {
      wd.main_function(SimTime((start + i) * 10'000));
    }
  }
};

TEST_F(WatchdogTest, HealthyHeartbeatsProduceNoErrors) {
  wd.add_runnable(monitor(1, 0, 0, /*cycles=*/4, /*min_hb=*/2, 6,
                          /*program_flow=*/false));
  for (int cycle = 0; cycle < 10; ++cycle) {
    wd.indicate_aliveness(RunnableId(1), TaskId(0), SimTime(0));
    wd.indicate_aliveness(RunnableId(1), TaskId(0), SimTime(0));
    ticks(4, cycle * 4);
  }
  EXPECT_TRUE(errors.empty());
  EXPECT_EQ(wd.cycles_run(), 40u);
}

TEST_F(WatchdogTest, MissingHeartbeatsRaiseAliveness) {
  wd.add_runnable(monitor(1, 0, 0, 4, 2));
  ticks(4);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].type, ErrorType::kAliveness);
  EXPECT_EQ(errors[0].runnable, RunnableId(1));
  EXPECT_EQ(errors[0].task, TaskId(0));
  EXPECT_EQ(errors[0].application, ApplicationId(0));
}

TEST_F(WatchdogTest, ExcessHeartbeatsRaiseArrivalRate) {
  wd.add_runnable(monitor(1, 0, 0, 4, 1, /*max_arrivals=*/3,
                          /*program_flow=*/false));
  for (int i = 0; i < 5; ++i) {
    wd.indicate_aliveness(RunnableId(1), TaskId(0), SimTime(0));
  }
  ticks(4);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].type, ErrorType::kArrivalRate);
}

TEST_F(WatchdogTest, FlowViolationRaisesProgramFlowImmediately) {
  wd.add_runnable(monitor(1, 0, 0));
  wd.add_runnable(monitor(2, 0, 0));
  wd.add_flow_entry_point(RunnableId(1));
  wd.add_flow_edge(RunnableId(1), RunnableId(2));
  wd.indicate_aliveness(RunnableId(2), TaskId(0), SimTime(5));  // wrong entry
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].type, ErrorType::kProgramFlow);
  EXPECT_EQ(errors[0].time, SimTime(5));
}

TEST_F(WatchdogTest, TaskBoundaryResetsFlow) {
  wd.add_runnable(monitor(1, 0, 0));
  wd.add_runnable(monitor(2, 0, 0));
  wd.add_flow_entry_point(RunnableId(1));
  wd.add_flow_edge(RunnableId(1), RunnableId(2));
  wd.indicate_aliveness(RunnableId(1), TaskId(0), SimTime(0));
  wd.indicate_aliveness(RunnableId(2), TaskId(0), SimTime(1));
  wd.notify_task_terminated(TaskId(0));
  wd.indicate_aliveness(RunnableId(1), TaskId(0), SimTime(2));
  EXPECT_TRUE(errors.empty());
}

// The Figure 6 scenario: program flow errors cause missing heartbeats; the
// collaboration logic reports the PFC errors as the cause and accumulates
// the secondary aliveness errors into a single report.
TEST_F(WatchdogTest, CollaborationSuppressesSecondaryAliveness) {
  wd.add_runnable(monitor(1, 0, 0, /*cycles=*/2, /*min_hb=*/1));
  wd.add_runnable(monitor(2, 0, 0, 2, 1));
  wd.add_flow_entry_point(RunnableId(1));
  wd.add_flow_edge(RunnableId(1), RunnableId(2));
  wd.add_flow_edge(RunnableId(2), RunnableId(1));

  // Corrupted flow: runnable 2 never executes; 1 repeats (1 -> 1 invalid),
  // so the PFC flags the root cause before the first aliveness check.
  for (int cycle = 0; cycle < 6; ++cycle) {
    wd.indicate_aliveness(RunnableId(1), TaskId(0), SimTime(cycle));
    wd.indicate_aliveness(RunnableId(1), TaskId(0), SimTime(cycle));
    ticks(2, cycle * 2);
  }

  int pfc = 0, aliveness = 0, accumulated = 0;
  for (const auto& e : errors) {
    if (e.type == ErrorType::kProgramFlow) ++pfc;
    if (e.type == ErrorType::kAliveness) ++aliveness;
    if (e.type == ErrorType::kAccumulatedAliveness) ++accumulated;
  }
  // PFC errors repeat every corrupted job; the aliveness symptom of the
  // missing runnable 2 is reported exactly once, as accumulated.
  EXPECT_GE(pfc, 3);
  EXPECT_EQ(accumulated, 1);
  EXPECT_EQ(aliveness, 0);
  // With threshold 3, the task state is driven faulty by the PFC errors.
  EXPECT_EQ(wd.task_health(TaskId(0)), Health::kFaulty);
  EXPECT_EQ(wd.tsi_unit().error_count(RunnableId(2),
                                      ErrorType::kAccumulatedAliveness),
            1u);
}

// The collaboration window (aliveness period + 1 cycles) follows the
// hypothesis installed by update_hypothesis: under the original 2-cycle
// period a 4-cycle-old flow error no longer masks, under the updated
// 4-cycle period it still does.
TEST_F(WatchdogTest, CollaborationWindowFollowsUpdatedHypothesis) {
  wd.add_runnable(monitor(1, 0, 0, /*cycles=*/2, /*min_hb=*/1));
  wd.add_runnable(monitor(2, 0, 0, 2, 1));
  wd.add_flow_entry_point(RunnableId(1));
  wd.add_flow_edge(RunnableId(1), RunnableId(2));
  wd.add_flow_edge(RunnableId(2), RunnableId(1));

  wd.indicate_aliveness(RunnableId(1), TaskId(0), SimTime(0));
  wd.indicate_aliveness(RunnableId(1), TaskId(0), SimTime(1));  // flow error
  wd.update_hypothesis(RunnableId(1), 4, 1, 4, 10);
  wd.update_hypothesis(RunnableId(2), 4, 1, 4, 10);
  ticks(4);  // both windows expire at cycle 4, 4 cycles after the flow error

  int accumulated = 0, plain = 0;
  for (const auto& e : errors) {
    if (e.type == ErrorType::kAccumulatedAliveness) ++accumulated;
    if (e.type == ErrorType::kAliveness) ++plain;
  }
  EXPECT_EQ(accumulated, 1);
  EXPECT_EQ(plain, 0);
}

TEST_F(WatchdogTest, AlivenessOnOtherTaskNotSuppressed) {
  wd.add_runnable(monitor(1, 0, 0, 2, 1));
  wd.add_runnable(monitor(2, 0, 0, 2, 1));
  wd.add_runnable(monitor(3, 1, 0, 2, 1));
  wd.add_flow_entry_point(RunnableId(1));
  // Flow error on task 0 only (runnable 2 is a wrong entry point).
  wd.indicate_aliveness(RunnableId(2), TaskId(0), SimTime(0));
  ticks(2);
  int aliveness = 0, accumulated = 0;
  for (const auto& e : errors) {
    if (e.type == ErrorType::kAliveness) {
      ++aliveness;
      // The unmasked aliveness error belongs to task 1's runnable.
      EXPECT_EQ(e.runnable, RunnableId(3));
    }
    if (e.type == ErrorType::kAccumulatedAliveness) ++accumulated;
  }
  // Runnable 3 (task 1) starved: plain aliveness error, not masked by the
  // flow episode on task 0. Runnable 1 (task 0) starved too, but masked.
  EXPECT_EQ(aliveness, 1);
  EXPECT_EQ(accumulated, 1);
}

// Regression (found by the soak test): a flow-fault episode must expire
// when no fresh PFC error arrives within the aliveness window — otherwise
// a task that is genuinely starved AFTER a transient flow fault would have
// its aliveness errors suppressed forever and never be treated.
TEST_F(WatchdogTest, StaleFlowEpisodeStopsMaskingAliveness) {
  wd.add_runnable(monitor(1, 0, 0, /*cycles=*/2, /*min_hb=*/1));
  wd.add_runnable(monitor(2, 0, 0, 2, 1));
  wd.add_flow_entry_point(RunnableId(1));
  wd.add_flow_edge(RunnableId(1), RunnableId(2));
  wd.add_flow_edge(RunnableId(2), RunnableId(1));

  // One transient flow corruption, then the task starves completely.
  wd.indicate_aliveness(RunnableId(1), TaskId(0), SimTime(0));
  wd.indicate_aliveness(RunnableId(1), TaskId(0), SimTime(1));  // flow error
  ticks(12);  // six aliveness windows without any further flow error

  int accumulated = 0, plain = 0;
  for (const auto& e : errors) {
    if (e.type == ErrorType::kAccumulatedAliveness) ++accumulated;
    if (e.type == ErrorType::kAliveness) ++plain;
  }
  // First window(s): masked once. After the episode ages out (window + 1
  // cycles), plain aliveness errors resume and drive the task faulty.
  EXPECT_EQ(accumulated, 1);
  EXPECT_GE(plain, 3);
  EXPECT_EQ(wd.task_health(TaskId(0)), Health::kFaulty);
}

TEST_F(WatchdogTest, ClearTaskStateEndsEpisode) {
  wd.add_runnable(monitor(1, 0, 0, 2, 1));
  wd.add_runnable(monitor(2, 0, 0, 2, 1));
  wd.add_flow_entry_point(RunnableId(1));
  wd.add_flow_edge(RunnableId(1), RunnableId(2));
  wd.add_flow_edge(RunnableId(2), RunnableId(1));

  wd.indicate_aliveness(RunnableId(1), TaskId(0), SimTime(0));
  wd.indicate_aliveness(RunnableId(1), TaskId(0), SimTime(1));  // flow error
  ticks(2);  // aliveness of r2 -> accumulated (episode active)

  wd.clear_task_state(TaskId(0), SimTime(100));
  EXPECT_EQ(wd.task_health(TaskId(0)), Health::kOk);
  errors.clear();

  // After treatment the episode is over: plain aliveness errors again.
  ticks(2, 10);
  ASSERT_FALSE(errors.empty());
  for (const auto& e : errors) {
    EXPECT_EQ(e.type, ErrorType::kAliveness);
  }
}

TEST_F(WatchdogTest, StateListenersFanOut) {
  wd.add_runnable(monitor(1, 0, 0, 2, 1));
  int task_calls = 0, app_calls = 0;
  wd.add_task_state_listener(
      [&](TaskId, Health, SimTime) { ++task_calls; });
  wd.add_task_state_listener(
      [&](TaskId, Health, SimTime) { ++task_calls; });
  wd.add_application_state_listener(
      [&](ApplicationId, Health, SimTime) { ++app_calls; });
  ticks(6);  // 3 aliveness errors -> faulty
  EXPECT_EQ(task_calls, 2);
  EXPECT_EQ(app_calls, 1);
}

TEST_F(WatchdogTest, ExternalReportTakesTaskAndApplicationFromRegistration) {
  wd.add_virtual_runnable(RunnableId(7), TaskId(3), ApplicationId(2),
                          "com:speed");
  for (int i = 0; i < 3; ++i) {
    ErrorReport report;
    report.runnable = RunnableId(7);
    report.type = ErrorType::kCommunication;
    report.time = SimTime(i);
    report.detail = "e2e crc";
    wd.report_external_error(std::move(report));
  }
  ASSERT_EQ(errors.size(), 3u);
  for (const auto& e : errors) {
    EXPECT_EQ(e.task, TaskId(3));
    EXPECT_EQ(e.application, ApplicationId(2));
    EXPECT_EQ(e.detail, "e2e crc");
  }
  EXPECT_EQ(wd.tsi_unit().error_count(RunnableId(7),
                                      ErrorType::kCommunication),
            3u);
  EXPECT_EQ(wd.task_health(TaskId(3)), Health::kFaulty);
  EXPECT_EQ(wd.application_health(ApplicationId(2)), Health::kFaulty);
}

TEST_F(WatchdogTest, ReportForUnregisteredRunnablePassesUnchanged) {
  wd.add_runnable(monitor(1, 0, 0));
  ErrorReport report;
  report.runnable = RunnableId(99);
  report.task = TaskId(5);
  report.application = ApplicationId(6);
  report.type = ErrorType::kDeadline;
  report.time = SimTime(10);
  wd.report_external_error(report);
  ErrorReport bare;  // no runnable at all (e.g. NVM corruption)
  bare.type = ErrorType::kNvmCorruption;
  wd.report_external_error(bare);
  ASSERT_EQ(errors.size(), 2u);
  EXPECT_EQ(errors[0].runnable, RunnableId(99));
  EXPECT_EQ(errors[0].task, TaskId(5));
  EXPECT_EQ(errors[0].application, ApplicationId(6));
  EXPECT_FALSE(errors[1].task.valid());
  EXPECT_FALSE(errors[1].application.valid());
  EXPECT_EQ(wd.task_health(TaskId(0)), Health::kOk);
}

TEST_F(WatchdogTest, ActivationStatusGatesMonitoring) {
  wd.add_runnable(monitor(1, 0, 0, 2, 1));
  wd.set_activation_status(RunnableId(1), false);
  EXPECT_FALSE(wd.activation_status(RunnableId(1)));
  ticks(10);
  EXPECT_TRUE(errors.empty());
  wd.set_activation_status(RunnableId(1), true);
  ticks(2, 10);
  EXPECT_EQ(errors.size(), 1u);
}

TEST_F(WatchdogTest, ApplicationActivationSparesVirtualAndForeignRunnables) {
  wd.add_runnable(monitor(1, 0, 7));
  wd.add_runnable(monitor(2, 0, 7));
  wd.add_runnable(monitor(3, 1, 8));
  wd.add_virtual_runnable(RunnableId(4), TaskId(0), ApplicationId(7), "chan");
  wd.set_application_active(ApplicationId(7), false);
  EXPECT_FALSE(wd.activation_status(RunnableId(1)));
  EXPECT_FALSE(wd.activation_status(RunnableId(2)));
  EXPECT_TRUE(wd.activation_status(RunnableId(3)));
  EXPECT_TRUE(wd.activation_status(RunnableId(4)));
  // A virtual runnable parked on its own stays parked through the
  // application's re-activation.
  wd.set_activation_status(RunnableId(4), false);
  wd.set_application_active(ApplicationId(7), true);
  EXPECT_TRUE(wd.activation_status(RunnableId(1)));
  EXPECT_TRUE(wd.activation_status(RunnableId(2)));
  EXPECT_TRUE(wd.activation_status(RunnableId(3)));
  EXPECT_FALSE(wd.activation_status(RunnableId(4)));
}

TEST_F(WatchdogTest, ResetClearsAllState) {
  wd.add_runnable(monitor(1, 0, 0, 2, 1));
  ticks(6);
  EXPECT_EQ(wd.task_health(TaskId(0)), Health::kFaulty);
  wd.reset(SimTime(1000));
  EXPECT_EQ(wd.task_health(TaskId(0)), Health::kOk);
  EXPECT_EQ(wd.ecu_health(), Health::kOk);
  EXPECT_EQ(wd.heartbeat_unit().cca(RunnableId(1)), 0u);
}

TEST_F(WatchdogTest, SeverityMapping) {
  EXPECT_EQ(SoftwareWatchdog::severity_of(ErrorType::kProgramFlow),
            Severity::kCritical);
  EXPECT_EQ(SoftwareWatchdog::severity_of(ErrorType::kAliveness),
            Severity::kMajor);
  EXPECT_EQ(SoftwareWatchdog::severity_of(ErrorType::kAccumulatedAliveness),
            Severity::kMinor);
}

// --- WatchdogService: OS integration ------------------------------------------

class ServiceTest : public ::testing::Test {
 protected:
  Engine engine;
  os::Kernel kernel{engine};
  rte::Rte rte{kernel};
  SoftwareWatchdog wd{test_config()};
  CounterId counter;

  void SetUp() override {
    os::CounterConfig cc;
    cc.name = "sys";
    cc.tick = Duration::millis(1);
    counter = kernel.create_counter(cc);
  }
};

TEST_F(ServiceTest, MainFunctionRunsPeriodically) {
  WatchdogService service(kernel, rte, wd, counter);
  rte.finalize();
  kernel.start();
  service.arm();
  engine.run_until(SimTime(105'000));  // >100 ms, check period 10 ms
  EXPECT_EQ(wd.cycles_run(), 10u);
}

TEST_F(ServiceTest, HeartbeatsFlowFromRteGlue) {
  const ApplicationId app = rte.register_application("App");
  const ComponentId comp = rte.register_component(app, "C");
  rte::RunnableSpec spec;
  spec.name = "R";
  spec.execution_time = Duration::micros(100);
  const RunnableId r = rte.register_runnable(comp, spec);

  os::TaskConfig tc;
  tc.name = "T";
  tc.priority = 5;
  const TaskId task = kernel.create_task(tc);
  rte.map_runnable(r, task);

  RunnableMonitor m = monitor(r.value(), task.value(), app.value(), 4, 1);
  m.runnable = r;
  m.task = task;
  m.application = app;
  wd.add_runnable(m);

  WatchdogService service(kernel, rte, wd, counter);
  rte.finalize();
  kernel.start();
  service.arm();
  kernel.activate_task(task);
  engine.run_until(SimTime(5'000));
  EXPECT_EQ(wd.heartbeat_unit().ac(r), 1u);
}

TEST_F(ServiceTest, DetectsStarvedTaskEndToEnd) {
  // A high-priority hog starves the monitored task; the watchdog's own
  // task must still run (higher priority) and flag the aliveness error.
  const ApplicationId app = rte.register_application("App");
  const ComponentId comp = rte.register_component(app, "C");
  rte::RunnableSpec spec;
  spec.name = "victim";
  spec.execution_time = Duration::micros(100);
  const RunnableId r = rte.register_runnable(comp, spec);

  os::TaskConfig tc;
  tc.name = "victim_task";
  tc.priority = 5;
  const TaskId task = kernel.create_task(tc);
  rte.map_runnable(r, task);

  os::TaskConfig hog_cfg;
  hog_cfg.name = "hog";
  hog_cfg.priority = 50;  // above victim, below watchdog (100)
  const TaskId hog = kernel.create_task(hog_cfg);
  kernel.set_job_factory(hog, [](os::Job& job) {
    os::Segment s;
    s.cost = Duration::seconds(10);  // effectively forever
    job.push_back(std::move(s));
  });

  RunnableMonitor m;
  m.runnable = r;
  m.task = task;
  m.application = app;
  m.name = "victim";
  m.aliveness_cycles = 4;
  m.min_heartbeats = 1;
  m.arrival_cycles = 4;
  m.max_arrivals = 10;
  wd.add_runnable(m);

  std::vector<ErrorReport> errors;
  wd.add_error_listener(
      [&](const ErrorReport& report) { errors.push_back(report); });

  const AlarmId victim_alarm =
      kernel.create_alarm(counter, os::AlarmActionActivateTask{task});
  WatchdogService service(kernel, rte, wd, counter);
  rte.finalize();
  kernel.start();
  service.arm();
  kernel.set_rel_alarm(victim_alarm, 10, 10);
  kernel.activate_task(hog);
  engine.run_until(SimTime(200'000));
  ASSERT_FALSE(errors.empty());
  EXPECT_EQ(errors[0].type, ErrorType::kAliveness);
  EXPECT_EQ(errors[0].runnable, r);
}

TEST_F(ServiceTest, CheckPeriodMustBeMultipleOfTick) {
  WatchdogConfig bad = test_config();
  bad.check_period = Duration::micros(1500);
  SoftwareWatchdog bad_wd(bad);
  EXPECT_THROW(WatchdogService(kernel, rte, bad_wd, counter),
               std::invalid_argument);
}

}  // namespace
}  // namespace easis::wdg
