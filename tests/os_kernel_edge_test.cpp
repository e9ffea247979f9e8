// Edge-case tests for the kernel: counter wraparound, LIFO resources,
// kill/chain corner cases, event subtleties, accounting across queued
// activations.
#include <gtest/gtest.h>

#include <vector>

#include "os/kernel.hpp"
#include "sim/engine.hpp"

namespace easis::os {
namespace {

using sim::Duration;
using sim::Engine;
using sim::SimTime;

class KernelEdgeTest : public ::testing::Test {
 protected:
  Engine engine;
  Kernel kernel{engine};

  TaskId make_task(const std::string& name, Priority priority, Duration cost,
                   std::function<void()> body = nullptr,
                   std::uint32_t max_pending = 0) {
    TaskConfig config;
    config.name = name;
    config.priority = priority;
    config.max_pending_activations = max_pending;
    const TaskId id = kernel.create_task(config);
    kernel.set_job_factory(id, [cost, body](Job& job) {
      Segment s;
      s.cost = cost;
      s.on_complete = body;
      job.push_back(std::move(s));
    });
    return id;
  }
};

TEST_F(KernelEdgeTest, CounterValueWrapsAtMaxAllowedValue) {
  const CounterId counter = kernel.create_counter(
      {.name = "small", .tick = Duration::millis(1), .max_allowed_value = 9});
  kernel.start();
  engine.run_until(SimTime(25'000));  // 25 ticks
  EXPECT_EQ(kernel.counter_ticks(counter), 25u % 10u);
}

TEST_F(KernelEdgeTest, AlarmsFireAcrossWrapBoundary) {
  int fires = 0;
  const CounterId counter = kernel.create_counter(
      {.name = "small", .tick = Duration::millis(1), .max_allowed_value = 9});
  const AlarmId alarm = kernel.create_alarm(
      counter, AlarmActionCallback{[&] { ++fires; }});
  kernel.start();
  kernel.set_rel_alarm(alarm, 7, 7);
  engine.run_until(SimTime(30'000));  // expiries at ticks 7, 14, 21, 28
  EXPECT_EQ(fires, 4);
}

TEST_F(KernelEdgeTest, KillClearsQueuedActivations) {
  int runs = 0;
  const TaskId t = make_task("t", 5, Duration::millis(1), [&] { ++runs; },
                             /*max_pending=*/3);
  kernel.start();
  kernel.activate_task(t);
  kernel.activate_task(t);
  kernel.activate_task(t);
  kernel.kill_task(t);
  engine.run_until(SimTime(100'000));
  EXPECT_EQ(runs, 0);
  // A fresh activation works normally afterwards.
  kernel.activate_task(t);
  engine.run_until(SimTime(200'000));
  EXPECT_EQ(runs, 1);
}

TEST_F(KernelEdgeTest, ChainToInvalidTaskKeepsRunning) {
  std::vector<std::string> order;
  TaskConfig config;
  config.name = "t";
  config.priority = 5;
  const TaskId t = kernel.create_task(config);
  kernel.set_job_factory(t, [&](Job& job) {
    Segment first;
    first.cost = Duration::micros(10);
    first.on_complete = [&] {
      EXPECT_EQ(kernel.chain_task(TaskId(99)), Status::kId);
      order.push_back("first");
    };
    Segment second;
    second.cost = Duration::micros(10);
    second.on_complete = [&] { order.push_back("second"); };
    job.push_back(std::move(first));
    job.push_back(std::move(second));
  });
  kernel.start();
  kernel.activate_task(t);
  engine.run_until(SimTime(10'000));
  // Failed chain must not abort the job.
  EXPECT_EQ(order, (std::vector<std::string>{"first", "second"}));
}

TEST_F(KernelEdgeTest, ChainToSelfRunsAgain) {
  int runs = 0;
  TaskConfig config;
  config.name = "self";
  config.priority = 5;
  const TaskId t = kernel.create_task(config);
  kernel.set_job_factory(t, [&, t](Job& job) {
    Segment s;
    s.cost = Duration::micros(100);
    s.on_complete = [&, t] {
      if (++runs < 3) kernel.chain_task(t);
    };
    job.push_back(std::move(s));
  });
  kernel.start();
  kernel.activate_task(t);
  engine.run_until(SimTime(10'000));
  EXPECT_EQ(runs, 3);
  EXPECT_EQ(kernel.jobs_completed(t), 3u);
}

TEST_F(KernelEdgeTest, ResourcesReleasedLifoOnly) {
  const ResourceId r1 = kernel.create_resource("r1", 9);
  const ResourceId r2 = kernel.create_resource("r2", 9);
  std::vector<Status> statuses;
  TaskConfig config;
  config.name = "t";
  config.priority = 5;
  const TaskId t = kernel.create_task(config);
  kernel.set_job_factory(t, [&](Job& job) {
    Segment s;
    s.cost = Duration::micros(10);
    s.on_start = [&] {
      statuses.push_back(kernel.get_resource(r1));
      statuses.push_back(kernel.get_resource(r2));
      statuses.push_back(kernel.release_resource(r1));  // wrong order
      statuses.push_back(kernel.release_resource(r2));  // correct (LIFO)
      statuses.push_back(kernel.release_resource(r1));  // now correct
    };
    job.push_back(std::move(s));
  });
  kernel.start();
  kernel.activate_task(t);
  engine.run_until(SimTime(1'000));
  ASSERT_EQ(statuses.size(), 5u);
  EXPECT_EQ(statuses[0], Status::kOk);
  EXPECT_EQ(statuses[1], Status::kOk);
  EXPECT_EQ(statuses[2], Status::kNoFunc);
  EXPECT_EQ(statuses[3], Status::kOk);
  EXPECT_EQ(statuses[4], Status::kOk);
}

TEST_F(KernelEdgeTest, SetEventWithZeroMaskDoesNotWake) {
  TaskConfig config;
  config.name = "ext";
  config.priority = 5;
  config.extended = true;
  const TaskId t = kernel.create_task(config);
  kernel.set_job_factory(t, [](Job& job) {
    Segment s;
    s.wait_mask = 0x4;
    s.cost = Duration::micros(10);
    job.push_back(std::move(s));
  });
  kernel.start();
  kernel.activate_task(t);
  engine.run_until(SimTime(1'000));
  EXPECT_EQ(kernel.set_event(t, 0x0), Status::kOk);
  EXPECT_EQ(kernel.set_event(t, 0x2), Status::kOk);  // wrong bit
  engine.run_until(SimTime(2'000));
  EXPECT_EQ(kernel.task_state(t), TaskState::kWaiting);
  kernel.set_event(t, 0x4);
  engine.run_until(SimTime(3'000));
  EXPECT_EQ(kernel.task_state(t), TaskState::kSuspended);
}

TEST_F(KernelEdgeTest, WakeConsumesOnlyWaitedBits) {
  TaskConfig config;
  config.name = "ext";
  config.priority = 5;
  config.extended = true;
  const TaskId t = kernel.create_task(config);
  kernel.set_job_factory(t, [](Job& job) {
    Segment s;
    s.wait_mask = 0x1;
    s.cost = Duration::millis(5);
    job.push_back(std::move(s));
  });
  kernel.start();
  kernel.activate_task(t);
  engine.run_until(SimTime(1'000));
  kernel.set_event(t, 0x3);  // waited bit + an extra bit
  engine.run_until(SimTime(2'000));
  EXPECT_EQ(kernel.task_state(t), TaskState::kRunning);
  EXPECT_EQ(kernel.get_event(t), 0x2u);  // extra bit still pending
}

TEST_F(KernelEdgeTest, JobConsumedResetsPerQueuedActivation) {
  const TaskId t =
      make_task("t", 5, Duration::millis(2), nullptr, /*max_pending=*/1);
  kernel.start();
  kernel.activate_task(t);
  kernel.activate_task(t);
  engine.run_until(SimTime(3'000));  // inside second job (1 ms in)
  EXPECT_EQ(kernel.job_consumed(t), Duration::millis(1));
  EXPECT_EQ(kernel.total_consumed(t), Duration::millis(3));
}

TEST_F(KernelEdgeTest, TaskMetadataAccessors) {
  const TaskId t = make_task("meta", 7, Duration::micros(10));
  EXPECT_EQ(kernel.task_name(t), "meta");
  EXPECT_EQ(kernel.task_priority(t), 7);
  EXPECT_EQ(kernel.task_count(), 1u);
}

TEST_F(KernelEdgeTest, ServiceErrorObserverNotified) {
  struct ErrorSpy : KernelObserver {
    std::vector<Status> errors;
    void on_service_error(Status s, std::string_view,
                          sim::SimTime) override {
      errors.push_back(s);
    }
  } spy;
  kernel.add_observer(&spy);
  kernel.start();
  kernel.activate_task(TaskId(42));
  ASSERT_EQ(spy.errors.size(), 1u);
  EXPECT_EQ(spy.errors[0], Status::kId);
  kernel.remove_observer(&spy);
}

TEST_F(KernelEdgeTest, CancelAlarmDuringItsOwnCallback) {
  // A one-shot alarm cancelling its cyclic sibling from the callback.
  int sibling_fires = 0;
  const CounterId counter = kernel.create_counter(
      {.name = "sys", .tick = Duration::millis(1)});
  const AlarmId sibling = kernel.create_alarm(
      counter, AlarmActionCallback{[&] { ++sibling_fires; }});
  const AlarmId killer = kernel.create_alarm(
      counter, AlarmActionCallback{[&] { kernel.cancel_alarm(sibling); }});
  kernel.start();
  kernel.set_rel_alarm(sibling, 5, 5);
  kernel.set_rel_alarm(killer, 12, 0);
  engine.run_until(SimTime(50'000));
  EXPECT_EQ(sibling_fires, 2);  // ticks 5 and 10 only
}

TEST_F(KernelEdgeTest, AlarmActivatingSuspendedAndRunningTask) {
  // An alarm activating a task that is sometimes still running: the
  // failed activation raises E_OS_LIMIT via the error hook but the
  // system keeps going.
  int runs = 0;
  std::vector<Status> errors;
  kernel.set_error_hook([&](Status s, std::string_view) {
    errors.push_back(s);
  });
  const TaskId t = make_task("slow", 5, Duration::millis(15),
                             [&] { ++runs; });
  const CounterId counter = kernel.create_counter(
      {.name = "sys", .tick = Duration::millis(1)});
  const AlarmId alarm =
      kernel.create_alarm(counter, AlarmActionActivateTask{t});
  kernel.start();
  kernel.set_rel_alarm(alarm, 10, 10);  // period < execution time
  engine.run_until(SimTime(100'000));
  // Back-to-back jobs complete at 25, 45, 65, 85 ms; every second alarm
  // expiry hits the still-running task and is rejected.
  EXPECT_GE(runs, 4);
  EXPECT_FALSE(errors.empty());
  for (Status s : errors) EXPECT_EQ(s, Status::kLimit);
}

TEST_F(KernelEdgeTest, EngineCancelTwiceSecondFails) {
  const sim::EventId id = engine.schedule_at(SimTime(10), [] {});
  EXPECT_TRUE(engine.cancel(id));
  EXPECT_FALSE(engine.cancel(id));
}

TEST_F(KernelEdgeTest, PreemptionDuringOnStartOfSegment) {
  // on_start activates a higher-priority task: the just-started segment
  // must be preempted before consuming any budget, then resume intact.
  std::vector<std::string> order;
  TaskId hi;
  TaskConfig lo_cfg;
  lo_cfg.name = "lo";
  lo_cfg.priority = 1;
  const TaskId lo = kernel.create_task(lo_cfg);
  kernel.set_job_factory(lo, [&](Job& job) {
    Segment s;
    s.cost = Duration::micros(100);
    s.on_start = [&] { kernel.activate_task(hi); };
    s.on_complete = [&] { order.push_back("lo@" +
                                          std::to_string(engine.now().as_micros())); };
    job.push_back(std::move(s));
  });
  TaskConfig hi_cfg;
  hi_cfg.name = "hi";
  hi_cfg.priority = 9;
  hi = kernel.create_task(hi_cfg);
  kernel.set_job_factory(hi, [&](Job& job) {
    Segment s;
    s.cost = Duration::micros(50);
    s.on_complete = [&] { order.push_back("hi@" +
                                          std::to_string(engine.now().as_micros())); };
    job.push_back(std::move(s));
  });
  kernel.start();
  kernel.activate_task(lo);
  engine.run_until(SimTime(10'000));
  // hi runs 0..50, lo then consumes its full 100us budget 50..150.
  EXPECT_EQ(order, (std::vector<std::string>{"hi@50", "lo@150"}));
}

// --- tickless hardware counters ------------------------------------------------------------

TEST_F(KernelEdgeTest, TickCountAndRemainingReadBetweenExpiries) {
  const CounterId counter = kernel.create_counter(
      {.name = "sys", .tick = Duration::millis(1)});
  const AlarmId alarm =
      kernel.create_alarm(counter, AlarmActionCallback{[] {}});
  kernel.start();
  kernel.set_rel_alarm(alarm, 10, 10);
  engine.run_until(SimTime(3'500));
  EXPECT_EQ(kernel.counter_ticks(counter), 3u);
  EXPECT_EQ(kernel.alarm_remaining_ticks(alarm).value(), 7u);
  engine.run_until(SimTime(13'999));
  EXPECT_EQ(kernel.counter_ticks(counter), 13u);
  EXPECT_EQ(kernel.alarm_remaining_ticks(alarm).value(), 7u);
}

TEST_F(KernelEdgeTest, TickCountAndRemainingAcrossWrap) {
  const CounterId counter = kernel.create_counter(
      {.name = "small", .tick = Duration::millis(1), .max_allowed_value = 9});
  const AlarmId alarm =
      kernel.create_alarm(counter, AlarmActionCallback{[] {}});
  kernel.start();
  engine.run_until(SimTime(8'500));
  kernel.set_rel_alarm(alarm, 4, 0);  // expires at tick 12, value 2
  EXPECT_EQ(kernel.counter_ticks(counter), 8u);
  engine.run_until(SimTime(10'500));
  EXPECT_EQ(kernel.counter_ticks(counter), 0u);
  EXPECT_EQ(kernel.alarm_remaining_ticks(alarm).value(), 2u);
  engine.run_until(SimTime(11'999));
  EXPECT_TRUE(kernel.alarm_armed(alarm));
  engine.run_until(SimTime(12'000));
  EXPECT_FALSE(kernel.alarm_armed(alarm));
  EXPECT_EQ(kernel.counter_ticks(counter), 2u);
}

TEST_F(KernelEdgeTest, IdleHardwareCounterSchedulesNothing) {
  const CounterId counter = kernel.create_counter(
      {.name = "sys", .tick = Duration::millis(1)});
  const AlarmId alarm =
      kernel.create_alarm(counter, AlarmActionCallback{[] {}});
  kernel.start();
  EXPECT_EQ(engine.pending_events(), 0u);
  engine.run_until(SimTime(1'000'000));
  EXPECT_EQ(engine.events_fired(), 0u);
  EXPECT_EQ(kernel.counter_ticks(counter), 1000u % 0x10000u);
  // A one-shot alarm costs one event, and the counter is idle again.
  kernel.set_rel_alarm(alarm, 5, 0);
  EXPECT_EQ(engine.pending_events(), 1u);
  engine.run_until(SimTime(2'000'000));
  EXPECT_EQ(engine.events_fired(), 1u);
  EXPECT_EQ(engine.pending_events(), 0u);
}

TEST_F(KernelEdgeTest, CancellingEarliestAlarmMovesTheExpiry) {
  std::vector<std::string> order;
  const CounterId counter = kernel.create_counter(
      {.name = "sys", .tick = Duration::millis(1)});
  const AlarmId early = kernel.create_alarm(
      counter, AlarmActionCallback{[&] { order.push_back("early"); }});
  const AlarmId late = kernel.create_alarm(counter, AlarmActionCallback{[&] {
    order.push_back("late@" + std::to_string(engine.now().as_micros()));
  }});
  kernel.start();
  kernel.set_rel_alarm(early, 3, 0);
  kernel.set_rel_alarm(late, 8, 0);
  EXPECT_EQ(engine.pending_events(), 1u);  // one event per counter
  EXPECT_EQ(kernel.cancel_alarm(early), Status::kOk);
  EXPECT_EQ(engine.pending_events(), 1u);
  engine.run_until(SimTime(7'999));
  EXPECT_EQ(engine.events_fired(), 0u);  // nothing left at tick 3
  engine.run_until(SimTime(20'000));
  EXPECT_EQ(order, (std::vector<std::string>{"late@8000"}));
  EXPECT_EQ(engine.events_fired(), 1u);
}

TEST_F(KernelEdgeTest, AlarmsDueOnTheSameTickFireInCreationOrder) {
  std::vector<std::string> order;
  const CounterId counter = kernel.create_counter(
      {.name = "sys", .tick = Duration::millis(1)});
  const AlarmId first = kernel.create_alarm(
      counter, AlarmActionCallback{[&] { order.push_back("first"); }});
  const AlarmId second = kernel.create_alarm(
      counter, AlarmActionCallback{[&] { order.push_back("second"); }});
  kernel.start();
  // Armed in reverse order, with different periods meeting at tick 6.
  kernel.set_rel_alarm(second, 2, 2);
  kernel.set_rel_alarm(first, 3, 3);
  engine.run_until(SimTime(6'000));
  EXPECT_EQ(order, (std::vector<std::string>{"second", "first", "second",
                                             "first", "second"}));
}

TEST_F(KernelEdgeTest, TicksRestartAtZeroAfterResetAndStart) {
  int fires = 0;
  const CounterId counter = kernel.create_counter(
      {.name = "sys", .tick = Duration::millis(1)});
  const AlarmId alarm = kernel.create_alarm(
      counter, AlarmActionCallback{[&] { ++fires; }});
  kernel.start();
  kernel.set_rel_alarm(alarm, 10, 10);
  engine.run_until(SimTime(25'500));
  EXPECT_EQ(fires, 2);
  kernel.software_reset();
  EXPECT_EQ(engine.pending_events(), 0u);
  EXPECT_EQ(kernel.counter_ticks(counter), 0u);
  engine.run_until(SimTime(40'000));
  EXPECT_EQ(kernel.counter_ticks(counter), 0u);  // stopped until start()
  kernel.start();
  kernel.set_rel_alarm(alarm, 10, 10);
  engine.run_until(SimTime(44'000));
  EXPECT_EQ(kernel.counter_ticks(counter), 4u);
  engine.run_until(SimTime(50'000));
  EXPECT_EQ(fires, 3);  // tick 10 of the new boot is 50 ms
}

TEST_F(KernelEdgeTest, CounterCreatedOnRunningKernelTicksFromCreation) {
  std::vector<std::int64_t> fired_at;
  kernel.start();
  engine.run_until(SimTime(2'300));
  const CounterId counter = kernel.create_counter(
      {.name = "late", .tick = Duration::millis(1)});
  const AlarmId alarm = kernel.create_alarm(counter, AlarmActionCallback{[&] {
    fired_at.push_back(engine.now().as_micros());
  }});
  EXPECT_EQ(kernel.counter_ticks(counter), 0u);
  kernel.set_rel_alarm(alarm, 2, 2);
  engine.run_until(SimTime(3'299));
  EXPECT_EQ(kernel.counter_ticks(counter), 0u);
  engine.run_until(SimTime(7'000));
  EXPECT_EQ(kernel.counter_ticks(counter), 4u);
  EXPECT_EQ(fired_at, (std::vector<std::int64_t>{4'300, 6'300}));
}

}  // namespace
}  // namespace easis::os
