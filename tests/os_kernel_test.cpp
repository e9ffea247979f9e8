// Unit tests for the OSEK-like kernel: scheduling, preemption, events,
// resources, counters/alarms, hooks, reset.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "os/kernel.hpp"
#include "sim/engine.hpp"

namespace easis::os {
namespace {

using sim::Duration;
using sim::Engine;
using sim::SimTime;

/// Appends one segment with given cost and completion action.
void add_segment(Job& job, Duration cost,
                 std::function<void()> action = nullptr) {
  Segment& segment = job.emplace_back();
  segment.cost = cost;
  segment.on_complete = std::move(action);
}

class KernelTest : public ::testing::Test {
 protected:
  Engine engine;
  Kernel kernel{engine};

  TaskId make_task(const std::string& name, Priority priority,
                   JobFactory factory, bool preemptable = true,
                   bool extended = false) {
    TaskConfig config;
    config.name = name;
    config.priority = priority;
    config.preemptable = preemptable;
    config.extended = extended;
    const TaskId id = kernel.create_task(config);
    kernel.set_job_factory(id, std::move(factory));
    return id;
  }
};

// --- basic execution ---------------------------------------------------------

TEST_F(KernelTest, ActivatedTaskRunsItsJob) {
  int runs = 0;
  const TaskId t = make_task("t", 1, [&](Job& job) {
    add_segment(job, Duration::micros(100), [&] { ++runs; });
  });
  kernel.start();
  EXPECT_EQ(kernel.activate_task(t), Status::kOk);
  engine.run_until(SimTime(1000));
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(kernel.task_state(t), TaskState::kSuspended);
  EXPECT_EQ(kernel.jobs_completed(t), 1u);
}

TEST_F(KernelTest, BodyRunsAfterModelledCost) {
  SimTime completed;
  const TaskId t = make_task("t", 1, [&](Job& job) {
    add_segment(job, Duration::micros(250),
                [&] { completed = engine.now(); });
  });
  kernel.start();
  kernel.activate_task(t);
  engine.run_until(SimTime(1000));
  EXPECT_EQ(completed, SimTime(250));
}

TEST_F(KernelTest, SegmentsExecuteInOrder) {
  std::vector<int> order;
  const TaskId t = make_task("t", 1, [&](Job& job) {
    for (int i = 0; i < 3; ++i) {
      Segment s;
      s.cost = Duration::micros(10);
      s.on_complete = [&order, i] { order.push_back(i); };
      job.push_back(std::move(s));
    }
  });
  kernel.start();
  kernel.activate_task(t);
  engine.run_until(SimTime(1000));
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST_F(KernelTest, EmptyJobTerminatesImmediately) {
  const TaskId t = make_task("t", 1, [](Job&) {});
  kernel.start();
  kernel.activate_task(t);
  engine.run_until(SimTime(10));
  EXPECT_EQ(kernel.task_state(t), TaskState::kSuspended);
  EXPECT_EQ(kernel.jobs_completed(t), 1u);
}

TEST_F(KernelTest, NullFactoryYieldsEmptyJob) {
  TaskConfig config;
  config.name = "bare";
  config.priority = 1;
  const TaskId t = kernel.create_task(config);
  kernel.start();
  EXPECT_EQ(kernel.activate_task(t), Status::kOk);
  engine.run_until(SimTime(10));
  EXPECT_EQ(kernel.jobs_completed(t), 1u);
}

TEST_F(KernelTest, OnStartRunsWhenSegmentGetsCpu) {
  SimTime started, completed;
  const TaskId t = make_task("t", 1, [&](Job& job) {
    Segment s;
    s.cost = Duration::micros(100);
    s.on_start = [&] { started = engine.now(); };
    s.on_complete = [&] { completed = engine.now(); };
    job.push_back(std::move(s));
  });
  kernel.start();
  kernel.activate_task(t);
  engine.run_until(SimTime(1000));
  EXPECT_EQ(started, SimTime(0));
  EXPECT_EQ(completed, SimTime(100));
}

// --- priorities and preemption --------------------------------------------------

TEST_F(KernelTest, HigherPriorityRunsFirst) {
  std::vector<std::string> order;
  const TaskId lo = make_task("lo", 1, [&](Job& job) {
    add_segment(job, Duration::micros(10), [&] { order.push_back("lo"); });
  });
  const TaskId hi = make_task("hi", 9, [&](Job& job) {
    add_segment(job, Duration::micros(10), [&] { order.push_back("hi"); });
  });
  kernel.start();
  kernel.activate_task(lo);
  kernel.activate_task(hi);
  engine.run_until(SimTime(1000));
  EXPECT_EQ(order, (std::vector<std::string>{"hi", "lo"}));
}

TEST_F(KernelTest, PreemptionPausesAndResumes) {
  SimTime lo_done, hi_done;
  const TaskId lo = make_task("lo", 1, [&](Job& job) {
    add_segment(job, Duration::micros(1000), [&] { lo_done = engine.now(); });
  });
  const TaskId hi = make_task("hi", 9, [&](Job& job) {
    add_segment(job, Duration::micros(200), [&] { hi_done = engine.now(); });
  });
  kernel.start();
  kernel.activate_task(lo);
  engine.schedule_at(SimTime(300), [&] { kernel.activate_task(hi); });
  engine.run_until(SimTime(5000));
  // hi runs 300..500; lo runs 0..300 and 500..1200.
  EXPECT_EQ(hi_done, SimTime(500));
  EXPECT_EQ(lo_done, SimTime(1200));
}

TEST_F(KernelTest, NonPreemptableRunsToCompletion) {
  SimTime lo_done, hi_done;
  const TaskId lo = make_task(
      "lo", 1,
      [&](Job& job) {
        add_segment(job, Duration::micros(1000),
                    [&] { lo_done = engine.now(); });
      },
      /*preemptable=*/false);
  const TaskId hi = make_task("hi", 9, [&](Job& job) {
    add_segment(job, Duration::micros(200), [&] { hi_done = engine.now(); });
  });
  kernel.start();
  kernel.activate_task(lo);
  engine.schedule_at(SimTime(300), [&] { kernel.activate_task(hi); });
  engine.run_until(SimTime(5000));
  EXPECT_EQ(lo_done, SimTime(1000));
  EXPECT_EQ(hi_done, SimTime(1200));
}

TEST_F(KernelTest, ScheduleCallYieldsNonPreemptable) {
  std::vector<std::string> order;
  TaskId hi;
  const TaskId lo = make_task(
      "lo", 1,
      [&](Job& job) {
        Segment first;
        first.cost = Duration::micros(100);
        first.on_complete = [&] {
          order.push_back("lo-1");
          kernel.activate_task(hi);
          kernel.schedule();  // explicit preemption point
        };
        Segment second;
        second.cost = Duration::micros(100);
        second.on_complete = [&] { order.push_back("lo-2"); };
        job.push_back(first);
        job.push_back(second);
      },
      /*preemptable=*/false);
  hi = make_task("hi", 9, [&](Job& job) {
    add_segment(job, Duration::micros(10), [&] { order.push_back("hi"); });
  });
  kernel.start();
  kernel.activate_task(lo);
  engine.run_until(SimTime(5000));
  EXPECT_EQ(order, (std::vector<std::string>{"lo-1", "hi", "lo-2"}));
}

TEST_F(KernelTest, FifoWithinSamePriority) {
  std::vector<std::string> order;
  const TaskId a = make_task("a", 5, [&](Job& job) {
    add_segment(job, Duration::micros(10), [&] { order.push_back("a"); });
  });
  const TaskId b = make_task("b", 5, [&](Job& job) {
    add_segment(job, Duration::micros(10), [&] { order.push_back("b"); });
  });
  kernel.start();
  kernel.activate_task(a);
  kernel.activate_task(b);
  engine.run_until(SimTime(1000));
  EXPECT_EQ(order, (std::vector<std::string>{"a", "b"}));
}

TEST_F(KernelTest, PreemptedTaskResumesBeforeEqualPriorityNewcomer) {
  std::vector<std::string> order;
  const TaskId a = make_task("a", 5, [&](Job& job) {
    add_segment(job, Duration::micros(500), [&] { order.push_back("a"); });
  });
  const TaskId b = make_task("b", 5, [&](Job& job) {
    add_segment(job, Duration::micros(10), [&] { order.push_back("b"); });
  });
  const TaskId hi = make_task("hi", 9, [&](Job& job) {
    add_segment(job, Duration::micros(100), [&] { order.push_back("hi"); });
  });
  kernel.start();
  kernel.activate_task(a);
  engine.schedule_at(SimTime(100), [&] {
    kernel.activate_task(b);   // same priority: queued behind a
    kernel.activate_task(hi);  // preempts a
  });
  engine.run_until(SimTime(5000));
  // a was preempted, so it must resume before b starts.
  EXPECT_EQ(order, (std::vector<std::string>{"hi", "a", "b"}));
}

// --- activation limits ------------------------------------------------------------

TEST_F(KernelTest, SecondActivationFailsWithoutQueueing) {
  const TaskId t = make_task("t", 1, [&](Job& job) {
    add_segment(job, Duration::micros(100));
  });
  kernel.start();
  EXPECT_EQ(kernel.activate_task(t), Status::kOk);
  EXPECT_EQ(kernel.activate_task(t), Status::kLimit);
}

TEST_F(KernelTest, QueuedActivationsRunBackToBack) {
  int runs = 0;
  TaskConfig config;
  config.name = "t";
  config.priority = 1;
  config.max_pending_activations = 2;
  const TaskId t = kernel.create_task(config);
  kernel.set_job_factory(t, [&](Job& job) {
    add_segment(job, Duration::micros(100), [&] { ++runs; });
  });
  kernel.start();
  EXPECT_EQ(kernel.activate_task(t), Status::kOk);
  EXPECT_EQ(kernel.activate_task(t), Status::kOk);
  EXPECT_EQ(kernel.activate_task(t), Status::kOk);
  EXPECT_EQ(kernel.activate_task(t), Status::kLimit);
  engine.run_until(SimTime(5000));
  EXPECT_EQ(runs, 3);
}

TEST_F(KernelTest, InvalidTaskIdRejected) {
  kernel.start();
  EXPECT_EQ(kernel.activate_task(TaskId{}), Status::kId);
  EXPECT_EQ(kernel.activate_task(TaskId(42)), Status::kId);
}

// --- chain ----------------------------------------------------------------------------

TEST_F(KernelTest, ChainTaskActivatesSuccessor) {
  std::vector<std::string> order;
  TaskId second;
  const TaskId first = make_task("first", 5, [&](Job& job) {
    Segment s;
    s.cost = Duration::micros(50);
    s.on_complete = [&] {
      order.push_back("first");
      kernel.chain_task(second);
    };
    Segment never;
    never.cost = Duration::micros(50);
    never.on_complete = [&] { order.push_back("never"); };
    job.push_back(s);
    job.push_back(never);
  });
  second = make_task("second", 5, [&](Job& job) {
    add_segment(job, Duration::micros(10), [&] { order.push_back("second"); });
  });
  kernel.start();
  kernel.activate_task(first);
  engine.run_until(SimTime(5000));
  EXPECT_EQ(order, (std::vector<std::string>{"first", "second"}));
  EXPECT_EQ(kernel.jobs_completed(first), 1u);
}

TEST_F(KernelTest, ChainTaskOutsideTaskFails) {
  const TaskId t = make_task("t", 1, [](Job&) {});
  kernel.start();
  EXPECT_EQ(kernel.chain_task(t), Status::kCallLevel);
}

// --- events -----------------------------------------------------------------------------

TEST_F(KernelTest, ExtendedTaskWaitsForEvent) {
  std::vector<std::string> order;
  const TaskId t = make_task(
      "ext", 5,
      [&](Job& job) {
        Segment first;
        first.cost = Duration::micros(10);
        first.on_complete = [&] { order.push_back("before-wait"); };
        Segment after;
        after.wait_mask = 0x1;
        after.cost = Duration::micros(10);
        after.on_complete = [&] { order.push_back("after-wait"); };
        job.push_back(first);
        job.push_back(after);
      },
      true, /*extended=*/true);
  kernel.start();
  kernel.activate_task(t);
  engine.run_until(SimTime(500));
  EXPECT_EQ(order, (std::vector<std::string>{"before-wait"}));
  EXPECT_EQ(kernel.task_state(t), TaskState::kWaiting);

  kernel.set_event(t, 0x1);
  engine.run_until(SimTime(1000));
  EXPECT_EQ(order, (std::vector<std::string>{"before-wait", "after-wait"}));
  EXPECT_EQ(kernel.task_state(t), TaskState::kSuspended);
}

TEST_F(KernelTest, EventAlreadyPendingDoesNotBlock) {
  std::vector<std::string> order;
  const TaskId t = make_task(
      "ext", 5,
      [&](Job& job) {
        Segment first;
        first.cost = Duration::micros(10);
        first.on_complete = [&] {
          kernel.set_event(kernel.running_task().value(), 0x2);
          order.push_back("set");
        };
        Segment second;
        second.wait_mask = 0x2;
        second.cost = Duration::micros(10);
        second.on_complete = [&] { order.push_back("continued"); };
        job.push_back(first);
        job.push_back(second);
      },
      true, /*extended=*/true);
  kernel.start();
  kernel.activate_task(t);
  engine.run_until(SimTime(1000));
  EXPECT_EQ(order, (std::vector<std::string>{"set", "continued"}));
}

TEST_F(KernelTest, SetEventOnBasicTaskFails) {
  const TaskId t = make_task("basic", 1, [](Job&) {});
  kernel.start();
  EXPECT_EQ(kernel.set_event(t, 0x1), Status::kAccess);
}

TEST_F(KernelTest, SetEventOnSuspendedExtendedTaskFails) {
  const TaskId t =
      make_task("ext", 1, [](Job&) {}, true, /*extended=*/true);
  kernel.start();
  EXPECT_EQ(kernel.set_event(t, 0x1), Status::kState);
}

TEST_F(KernelTest, ClearEventRemovesPendingBits) {
  const TaskId t = make_task(
      "ext", 5,
      [&](Job& job) { add_segment(job, Duration::micros(1000)); }, true,
      /*extended=*/true);
  kernel.start();
  kernel.activate_task(t);
  engine.run_until(SimTime(10));
  kernel.set_event(t, 0x5);
  EXPECT_EQ(kernel.get_event(t), 0x5u);
  kernel.clear_event(t, 0x1);
  EXPECT_EQ(kernel.get_event(t), 0x4u);
}

// --- resources -------------------------------------------------------------------------

TEST_F(KernelTest, PriorityCeilingBlocksMidPriorityTask) {
  std::vector<std::string> order;
  const ResourceId res = kernel.create_resource("shared", 8);
  TaskId mid;
  const TaskId lo = make_task("lo", 1, [&](Job& job) {
    Segment critical;
    critical.cost = Duration::micros(500);
    critical.on_start = [&] {
      EXPECT_EQ(kernel.get_resource(res), Status::kOk);
      kernel.activate_task(mid);  // must NOT preempt: ceiling 8 > mid 5
    };
    critical.on_complete = [&] {
      order.push_back("lo-critical");
      EXPECT_EQ(kernel.release_resource(res), Status::kOk);
    };
    Segment tail;
    tail.cost = Duration::micros(100);
    tail.on_complete = [&] { order.push_back("lo-tail"); };
    job.push_back(critical);
    job.push_back(tail);
  });
  mid = make_task("mid", 5, [&](Job& job) {
    add_segment(job, Duration::micros(10), [&] { order.push_back("mid"); });
  });
  kernel.start();
  kernel.activate_task(lo);
  engine.run_until(SimTime(5000));
  // mid runs right after the resource is released (preempting lo's tail).
  EXPECT_EQ(order,
            (std::vector<std::string>{"lo-critical", "mid", "lo-tail"}));
}

TEST_F(KernelTest, ResourceHeldTwiceFails) {
  const ResourceId res = kernel.create_resource("r", 9);
  Status second = Status::kOk;
  const TaskId t = make_task("t", 1, [&](Job& job) {
    Segment s;
    s.cost = Duration::micros(10);
    s.on_start = [&] {
      kernel.get_resource(res);
      second = kernel.get_resource(res);
    };
    s.on_complete = [&] { kernel.release_resource(res); };
    job.push_back(std::move(s));
  });
  kernel.start();
  kernel.activate_task(t);
  engine.run_until(SimTime(100));
  EXPECT_EQ(second, Status::kAccess);
}

TEST_F(KernelTest, CeilingBelowTaskPriorityRejected) {
  const ResourceId res = kernel.create_resource("r", 2);
  Status got = Status::kOk;
  const TaskId t = make_task("t", 5, [&](Job& job) {
    Segment s;
    s.cost = Duration::micros(10);
    s.on_start = [&] { got = kernel.get_resource(res); };
    job.push_back(std::move(s));
  });
  kernel.start();
  kernel.activate_task(t);
  engine.run_until(SimTime(100));
  EXPECT_EQ(got, Status::kAccess);
}

TEST_F(KernelTest, TerminatingWhileHoldingResourceReportsError) {
  const ResourceId res = kernel.create_resource("r", 9);
  std::vector<Status> errors;
  kernel.set_error_hook([&](Status s, std::string_view) { errors.push_back(s); });
  const TaskId t = make_task("t", 1, [&](Job& job) {
    Segment s;
    s.cost = Duration::micros(10);
    s.on_start = [&] { kernel.get_resource(res); };
    job.push_back(std::move(s));  // terminates without releasing
  });
  kernel.start();
  kernel.activate_task(t);
  engine.run_until(SimTime(100));
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0], Status::kResource);
  EXPECT_FALSE(kernel.resource_held(res));  // force-released
}

TEST_F(KernelTest, ReleaseNotHeldResourceFails) {
  const ResourceId res = kernel.create_resource("r", 9);
  Status got = Status::kOk;
  const TaskId t = make_task("t", 1, [&](Job& job) {
    Segment s;
    s.cost = Duration::micros(10);
    s.on_start = [&] { got = kernel.release_resource(res); };
    job.push_back(std::move(s));
  });
  kernel.start();
  kernel.activate_task(t);
  engine.run_until(SimTime(100));
  EXPECT_EQ(got, Status::kNoFunc);
}

// --- counters and alarms -----------------------------------------------------------------

TEST_F(KernelTest, CyclicAlarmActivatesTaskPeriodically) {
  int runs = 0;
  const TaskId t = make_task("t", 1, [&](Job& job) {
    add_segment(job, Duration::micros(100), [&] { ++runs; });
  });
  const CounterId counter = kernel.create_counter(
      {.name = "sys", .tick = Duration::millis(1)});
  const AlarmId alarm =
      kernel.create_alarm(counter, AlarmActionActivateTask{t});
  kernel.start();
  kernel.set_rel_alarm(alarm, 10, 10);  // every 10 ms
  engine.run_until(SimTime(101'000));   // 10 activations complete by 100.1ms
  EXPECT_EQ(runs, 10);
}

TEST_F(KernelTest, OneShotAlarmFiresOnce) {
  int fires = 0;
  const CounterId counter = kernel.create_counter(
      {.name = "sys", .tick = Duration::millis(1)});
  const AlarmId alarm = kernel.create_alarm(
      counter, AlarmActionCallback{[&] { ++fires; }});
  kernel.start();
  kernel.set_rel_alarm(alarm, 5, 0);
  engine.run_until(SimTime(50'000));
  EXPECT_EQ(fires, 1);
  EXPECT_FALSE(kernel.alarm_armed(alarm));
}

TEST_F(KernelTest, CancelAlarmStopsIt) {
  int fires = 0;
  const CounterId counter = kernel.create_counter(
      {.name = "sys", .tick = Duration::millis(1)});
  const AlarmId alarm = kernel.create_alarm(
      counter, AlarmActionCallback{[&] { ++fires; }});
  kernel.start();
  kernel.set_rel_alarm(alarm, 10, 10);
  engine.run_until(SimTime(25'000));
  EXPECT_EQ(fires, 2);
  EXPECT_EQ(kernel.cancel_alarm(alarm), Status::kOk);
  engine.run_until(SimTime(100'000));
  EXPECT_EQ(fires, 2);
  EXPECT_EQ(kernel.cancel_alarm(alarm), Status::kNoFunc);
}

TEST_F(KernelTest, AlarmSetEventAction) {
  std::vector<std::string> order;
  const TaskId t = make_task(
      "ext", 5,
      [&](Job& job) {
        Segment wait;
        wait.wait_mask = 0x1;
        wait.cost = Duration::micros(10);
        wait.on_complete = [&] { order.push_back("woken"); };
        job.push_back(wait);
      },
      true, /*extended=*/true);
  const CounterId counter = kernel.create_counter(
      {.name = "sys", .tick = Duration::millis(1)});
  const AlarmId alarm =
      kernel.create_alarm(counter, AlarmActionSetEvent{t, 0x1});
  kernel.start();
  kernel.activate_task(t);
  kernel.set_rel_alarm(alarm, 3, 0);
  engine.run_until(SimTime(10'000));
  EXPECT_EQ(order, (std::vector<std::string>{"woken"}));
}

TEST_F(KernelTest, SoftwareCounterAdvancesOnlyByIncrement) {
  int fires = 0;
  const CounterId counter = kernel.create_counter(
      {.name = "swc", .tick = Duration::millis(1), .max_allowed_value = 0xFF,
       .hardware_driven = false});
  const AlarmId alarm = kernel.create_alarm(
      counter, AlarmActionCallback{[&] { ++fires; }});
  kernel.start();
  kernel.set_rel_alarm(alarm, 2, 0);
  engine.run_until(SimTime(100'000));
  EXPECT_EQ(fires, 0);
  kernel.increment_counter(counter);
  kernel.increment_counter(counter);
  EXPECT_EQ(fires, 1);
  EXPECT_EQ(kernel.counter_ticks(counter), 2u);
}

TEST_F(KernelTest, HardwareCounterRejectsManualIncrement) {
  const CounterId counter = kernel.create_counter(
      {.name = "hw", .tick = Duration::millis(1)});
  kernel.start();
  EXPECT_EQ(kernel.increment_counter(counter), Status::kAccess);
}

TEST_F(KernelTest, SetRelAlarmZeroOffsetRejected) {
  const CounterId counter = kernel.create_counter(
      {.name = "sys", .tick = Duration::millis(1)});
  const AlarmId alarm =
      kernel.create_alarm(counter, AlarmActionCallback{[] {}});
  kernel.start();
  EXPECT_EQ(kernel.set_rel_alarm(alarm, 0, 10), Status::kValue);
}

TEST_F(KernelTest, SetRelAlarmTwiceRejected) {
  const CounterId counter = kernel.create_counter(
      {.name = "sys", .tick = Duration::millis(1)});
  const AlarmId alarm =
      kernel.create_alarm(counter, AlarmActionCallback{[] {}});
  kernel.start();
  EXPECT_EQ(kernel.set_rel_alarm(alarm, 5, 5), Status::kOk);
  EXPECT_EQ(kernel.set_rel_alarm(alarm, 5, 5), Status::kState);
}

// --- hooks and observers ---------------------------------------------------------------

TEST_F(KernelTest, PrePostTaskHooksFire) {
  std::vector<std::string> order;
  const TaskId t = make_task("t", 1, [&](Job& job) {
    add_segment(job, Duration::micros(10), [&] { order.push_back("body"); });
  });
  kernel.set_pre_task_hook([&](TaskId id) {
    order.push_back("pre:" + kernel.task_name(id));
  });
  kernel.set_post_task_hook([&](TaskId id) {
    order.push_back("post:" + kernel.task_name(id));
  });
  kernel.start();
  kernel.activate_task(t);
  engine.run_until(SimTime(1000));
  EXPECT_EQ(order, (std::vector<std::string>{"pre:t", "body", "post:t"}));
}

TEST_F(KernelTest, ObserverSeesLifecycle) {
  struct Recorder : KernelObserver {
    std::vector<std::string> events;
    void on_task_activated(TaskId, sim::SimTime) override {
      events.push_back("activated");
    }
    void on_task_dispatched(TaskId, sim::SimTime) override {
      events.push_back("dispatched");
    }
    void on_task_terminated(TaskId, sim::SimTime) override {
      events.push_back("terminated");
    }
  } recorder;
  const TaskId t = make_task("t", 1, [&](Job& job) {
    add_segment(job, Duration::micros(10));
  });
  kernel.add_observer(&recorder);
  kernel.start();
  kernel.activate_task(t);
  engine.run_until(SimTime(1000));
  kernel.remove_observer(&recorder);
  EXPECT_EQ(recorder.events,
            (std::vector<std::string>{"activated", "dispatched",
                                      "terminated"}));
}

TEST_F(KernelTest, ObserverSeesSegmentsWithRunnableIds) {
  struct Recorder : KernelObserver {
    std::vector<RunnableId> started;
    void on_segment_start(TaskId, RunnableId r, sim::SimTime) override {
      started.push_back(r);
    }
  } recorder;
  const TaskId t = make_task("t", 1, [&](Job& job) {
    Segment s;
    s.cost = Duration::micros(10);
    s.runnable = RunnableId(77);
    job.push_back(std::move(s));
  });
  kernel.add_observer(&recorder);
  kernel.start();
  kernel.activate_task(t);
  engine.run_until(SimTime(1000));
  ASSERT_EQ(recorder.started.size(), 1u);
  EXPECT_EQ(recorder.started[0], RunnableId(77));
}

TEST_F(KernelTest, ObserverChangesTakeEffectAfterTheNotification) {
  // An observer added from a callback is first called by the next
  // notification; one removed from a callback is not called again, not
  // even later in the notification that removed it.
  struct Recorder : KernelObserver {
    std::vector<std::string>* log = nullptr;
    std::string name;
    std::function<void()> on_activated;
    void on_task_activated(TaskId, sim::SimTime) override {
      log->push_back(name);
      if (on_activated) on_activated();
    }
  };
  std::vector<std::string> log;
  Recorder remover, removed, added;
  remover.log = removed.log = added.log = &log;
  remover.name = "remover";
  removed.name = "removed";
  added.name = "added";
  bool swapped = false;
  remover.on_activated = [&] {
    if (swapped) return;
    swapped = true;
    kernel.remove_observer(&removed);
    kernel.add_observer(&added);
  };
  const TaskId t = make_task("t", 1, [&](Job& job) {
    add_segment(job, Duration::micros(10));
  });
  kernel.add_observer(&remover);
  kernel.add_observer(&removed);
  kernel.start();
  kernel.activate_task(t);
  engine.run_until(SimTime(1000));
  EXPECT_EQ(log, (std::vector<std::string>{"remover"}));
  kernel.activate_task(t);
  engine.run_until(SimTime(2000));
  EXPECT_EQ(log,
            (std::vector<std::string>{"remover", "remover", "added"}));
  kernel.remove_observer(&remover);
  kernel.remove_observer(&added);
}

TEST_F(KernelTest, RecycledJobStorageStartsEmpty) {
  // Every activation gets an empty job, whatever its storage held before.
  std::vector<std::size_t> sizes;
  const TaskId t = make_task("t", 1, [&](Job& job) {
    sizes.push_back(job.size());
    add_segment(job, Duration::micros(10));
    add_segment(job, Duration::micros(10));
  });
  kernel.start();
  for (int i = 0; i < 3; ++i) {
    kernel.activate_task(t);
    engine.run_until(SimTime(1000 * (i + 1)));
  }
  EXPECT_EQ(sizes, (std::vector<std::size_t>{0, 0, 0}));
  EXPECT_EQ(kernel.jobs_completed(t), 3u);
}

// --- accounting -----------------------------------------------------------------------

TEST_F(KernelTest, ConsumedTimeAccountsPreemption) {
  const TaskId lo = make_task("lo", 1, [&](Job& job) {
    add_segment(job, Duration::micros(1000));
  });
  const TaskId hi = make_task("hi", 9, [&](Job& job) {
    add_segment(job, Duration::micros(200));
  });
  kernel.start();
  kernel.activate_task(lo);
  engine.schedule_at(SimTime(300), [&] { kernel.activate_task(hi); });
  engine.run_until(SimTime(5000));
  EXPECT_EQ(kernel.total_consumed(lo), Duration::micros(1000));
  EXPECT_EQ(kernel.total_consumed(hi), Duration::micros(200));
}

TEST_F(KernelTest, JobConsumedVisibleMidExecution) {
  const TaskId t = make_task("t", 1, [&](Job& job) {
    add_segment(job, Duration::micros(1000));
  });
  kernel.start();
  kernel.activate_task(t);
  engine.run_until(SimTime(400));
  EXPECT_EQ(kernel.job_consumed(t), Duration::micros(400));
}

// --- kill and reset ----------------------------------------------------------------------

TEST_F(KernelTest, KillRunningTaskStopsIt) {
  int runs = 0;
  const TaskId t = make_task("t", 1, [&](Job& job) {
    add_segment(job, Duration::micros(1000), [&] { ++runs; });
  });
  kernel.start();
  kernel.activate_task(t);
  engine.run_until(SimTime(500));
  EXPECT_EQ(kernel.kill_task(t), Status::kOk);
  engine.run_until(SimTime(5000));
  EXPECT_EQ(runs, 0);
  EXPECT_EQ(kernel.task_state(t), TaskState::kSuspended);
}

TEST_F(KernelTest, KillReadyTaskRemovesFromQueue) {
  int lo_runs = 0;
  const TaskId hi = make_task("hi", 9, [&](Job& job) {
    add_segment(job, Duration::micros(500));
  });
  const TaskId lo = make_task("lo", 1, [&](Job& job) {
    add_segment(job, Duration::micros(10), [&] { ++lo_runs; });
  });
  kernel.start();
  kernel.activate_task(hi);
  kernel.activate_task(lo);  // ready behind hi
  kernel.kill_task(lo);
  engine.run_until(SimTime(5000));
  EXPECT_EQ(lo_runs, 0);
}

TEST_F(KernelTest, SoftwareResetStopsEverythingAndRestarts) {
  int runs = 0;
  const TaskId t = make_task("t", 1, [&](Job& job) {
    add_segment(job, Duration::micros(100), [&] { ++runs; });
  });
  const CounterId counter = kernel.create_counter(
      {.name = "sys", .tick = Duration::millis(1)});
  const AlarmId alarm =
      kernel.create_alarm(counter, AlarmActionActivateTask{t});
  kernel.start();
  kernel.set_rel_alarm(alarm, 10, 10);
  engine.run_until(SimTime(35'000));
  EXPECT_EQ(runs, 3);

  kernel.software_reset();
  engine.run_until(SimTime(100'000));
  EXPECT_EQ(runs, 3);  // nothing runs while stopped
  EXPECT_EQ(kernel.reset_count(), 1u);

  kernel.start();
  kernel.set_rel_alarm(alarm, 10, 10);
  engine.run_until(SimTime(135'000));
  EXPECT_EQ(runs, 6);
}

TEST_F(KernelTest, AutoStartTaskRunsAtStart) {
  int runs = 0;
  TaskConfig config;
  config.name = "auto";
  config.priority = 1;
  config.auto_start = true;
  const TaskId t = kernel.create_task(config);
  kernel.set_job_factory(t, [&](Job& job) {
    add_segment(job, Duration::micros(10), [&] { ++runs; });
  });
  kernel.start();
  engine.run_until(SimTime(1000));
  EXPECT_EQ(runs, 1);
}

}  // namespace
}  // namespace easis::os
