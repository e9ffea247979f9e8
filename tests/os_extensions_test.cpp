// Tests for kernel extensions: category-2 ISRs, alarm introspection,
// response-time instrumentation.
#include <gtest/gtest.h>

#include <vector>

#include "os/kernel.hpp"
#include "os/response_time.hpp"
#include "sim/engine.hpp"

namespace easis::os {
namespace {

using sim::Duration;
using sim::Engine;
using sim::SimTime;

class IsrTest : public ::testing::Test {
 protected:
  Engine engine;
  Kernel kernel{engine};

  TaskId make_task(const std::string& name, Priority priority, Duration cost,
                   std::vector<SimTime>* completions = nullptr) {
    TaskConfig config;
    config.name = name;
    config.priority = priority;
    const TaskId id = kernel.create_task(config);
    kernel.set_job_factory(id, [this, cost, completions](Job& job) {
      Segment s;
      s.cost = cost;
      if (completions != nullptr) {
        s.on_complete = [this, completions] {
          completions->push_back(engine.now());
        };
      }
      job.push_back(std::move(s));
    });
    return id;
  }
};

TEST_F(IsrTest, IsrPreemptsAnyTask) {
  std::vector<SimTime> task_done;
  std::vector<SimTime> isr_done;
  const TaskId task =
      make_task("app", 999, Duration::millis(1), &task_done);
  const TaskId isr = kernel.create_isr(
      "irq", Duration::micros(50),
      [&] { isr_done.push_back(engine.now()); });
  kernel.start();
  kernel.activate_task(task);
  engine.schedule_at(SimTime(200), [&] { kernel.trigger_isr(isr); });
  engine.run_until(SimTime(10'000));
  ASSERT_EQ(isr_done.size(), 1u);
  EXPECT_EQ(isr_done[0], SimTime(250));  // preempts at 200, runs 50us
  ASSERT_EQ(task_done.size(), 1u);
  EXPECT_EQ(task_done[0], SimTime(1'050));  // 1ms work + 50us interruption
}

TEST_F(IsrTest, IsrHandlerMayActivateTask) {
  std::vector<SimTime> done;
  const TaskId task = make_task("reaction", 10, Duration::micros(100), &done);
  const TaskId isr =
      kernel.create_isr("irq", Duration::micros(20),
                        [&] { kernel.activate_task(task); });
  kernel.start();
  engine.schedule_at(SimTime(500), [&] { kernel.trigger_isr(isr); });
  engine.run_until(SimTime(10'000));
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0], SimTime(620));  // 500 + 20 ISR + 100 task
}

TEST_F(IsrTest, PendingIsrTriggersQueue) {
  int handled = 0;
  const TaskId isr =
      kernel.create_isr("irq", Duration::micros(10), [&] { ++handled; });
  kernel.start();
  // Three triggers while the first is "executing".
  kernel.trigger_isr(isr);
  kernel.trigger_isr(isr);
  kernel.trigger_isr(isr);
  engine.run_until(SimTime(1'000));
  EXPECT_EQ(handled, 3);
}

TEST_F(IsrTest, TriggeringNonIsrTaskRejected) {
  const TaskId task = make_task("app", 5, Duration::micros(10));
  kernel.start();
  EXPECT_EQ(kernel.trigger_isr(task), Status::kId);
  EXPECT_EQ(kernel.trigger_isr(TaskId(99)), Status::kId);
}

TEST_F(IsrTest, IsrRunsToCompletionAgainstOtherIsr) {
  std::vector<std::string> order;
  const TaskId isr_a = kernel.create_isr(
      "irq_a", Duration::micros(100), [&] { order.push_back("a"); });
  const TaskId isr_b = kernel.create_isr(
      "irq_b", Duration::micros(10), [&] { order.push_back("b"); });
  kernel.start();
  kernel.trigger_isr(isr_a);
  engine.schedule_at(SimTime(20), [&] { kernel.trigger_isr(isr_b); });
  engine.run_until(SimTime(1'000));
  // ISRs are non-preemptable: a finishes before b despite b's arrival.
  EXPECT_EQ(order, (std::vector<std::string>{"a", "b"}));
}

// --- alarm introspection -------------------------------------------------------

TEST_F(IsrTest, AlarmRemainingTicks) {
  const CounterId counter = kernel.create_counter(
      {.name = "sys", .tick = Duration::millis(1)});
  const AlarmId alarm =
      kernel.create_alarm(counter, AlarmActionCallback{[] {}});
  kernel.start();
  EXPECT_FALSE(kernel.alarm_remaining_ticks(alarm).ok());
  EXPECT_EQ(kernel.alarm_remaining_ticks(alarm).error(), Status::kNoFunc);
  kernel.set_rel_alarm(alarm, 10, 0);
  auto remaining = kernel.alarm_remaining_ticks(alarm);
  ASSERT_TRUE(remaining.ok());
  EXPECT_EQ(remaining.value(), 10u);
  engine.run_until(SimTime(4'000));
  remaining = kernel.alarm_remaining_ticks(alarm);
  ASSERT_TRUE(remaining.ok());
  EXPECT_EQ(remaining.value(), 6u);
  EXPECT_EQ(kernel.alarm_remaining_ticks(AlarmId(99)).error(), Status::kId);
}

// --- response-time observer ------------------------------------------------------

class ResponseTimeTest : public IsrTest {};

TEST_F(ResponseTimeTest, RecordsResponsePerJob) {
  const TaskId task = make_task("t", 5, Duration::millis(2));
  ResponseTimeObserver observer(kernel);
  kernel.start();
  kernel.activate_task(task);
  engine.run_until(SimTime(50'000));
  const auto* stats = observer.response_times_ms(task);
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->count(), 1u);
  EXPECT_DOUBLE_EQ(stats->mean(), 2.0);
  EXPECT_EQ(observer.jobs_observed(task), 1u);
}

TEST_F(ResponseTimeTest, ResponseIncludesPreemptionDelay) {
  const TaskId victim = make_task("victim", 1, Duration::millis(1));
  const TaskId hog = make_task("hog", 9, Duration::millis(5));
  ResponseTimeObserver observer(kernel);
  kernel.start();
  kernel.activate_task(victim);
  engine.schedule_at(SimTime(100), [&] { kernel.activate_task(hog); });
  engine.run_until(SimTime(100'000));
  const auto* stats = observer.response_times_ms(victim);
  ASSERT_NE(stats, nullptr);
  EXPECT_DOUBLE_EQ(stats->mean(), 6.0);  // 1 ms work + 5 ms preemption
  EXPECT_EQ(observer.preemptions(victim), 1u);
}

TEST_F(ResponseTimeTest, WatchOnlyFilters) {
  const TaskId a = make_task("a", 5, Duration::millis(1));
  const TaskId b = make_task("b", 6, Duration::millis(1));
  ResponseTimeObserver observer(kernel);
  observer.watch_only(a);
  kernel.start();
  kernel.activate_task(a);
  kernel.activate_task(b);
  engine.run_until(SimTime(50'000));
  EXPECT_NE(observer.response_times_ms(a), nullptr);
  EXPECT_EQ(observer.response_times_ms(b), nullptr);
}

TEST_F(ResponseTimeTest, QueuedActivationsAttributedFifo) {
  TaskConfig config;
  config.name = "q";
  config.priority = 5;
  config.max_pending_activations = 2;
  const TaskId task = kernel.create_task(config);
  kernel.set_job_factory(task, [](Job& job) {
    Segment s;
    s.cost = Duration::millis(1);
    job.push_back(std::move(s));
  });
  ResponseTimeObserver observer(kernel);
  kernel.start();
  kernel.activate_task(task);
  kernel.activate_task(task);  // queued; starts after the first finishes
  engine.run_until(SimTime(50'000));
  const auto* stats = observer.response_times_ms(task);
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->count(), 2u);
  EXPECT_DOUBLE_EQ(stats->min(), 1.0);
  EXPECT_DOUBLE_EQ(stats->max(), 2.0);  // waited for the first job
}

TEST_F(ResponseTimeTest, ClearResets) {
  const TaskId task = make_task("t", 5, Duration::millis(1));
  ResponseTimeObserver observer(kernel);
  kernel.start();
  kernel.activate_task(task);
  engine.run_until(SimTime(50'000));
  observer.clear();
  EXPECT_EQ(observer.response_times_ms(task), nullptr);
  EXPECT_EQ(observer.jobs_observed(task), 0u);
}

}  // namespace
}  // namespace easis::os
