// Unit tests for the RTE: component model, mapping, glue code, lifecycle,
// injection controls, signal bus.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "os/kernel.hpp"
#include "rte/ecu.hpp"
#include "rte/rte.hpp"
#include "rte/signal_bus.hpp"
#include "sim/engine.hpp"

namespace easis::rte {
namespace {

using sim::Duration;
using sim::Engine;
using sim::SimTime;

class RteTest : public ::testing::Test {
 protected:
  Engine engine;
  os::Kernel kernel{engine};
  Rte rte{kernel};

  TaskId make_task(const std::string& name, os::Priority priority = 5) {
    os::TaskConfig config;
    config.name = name;
    config.priority = priority;
    return kernel.create_task(config);
  }

  RunnableId add_runnable(ComponentId component, const std::string& name,
                          Duration cost = Duration::micros(100),
                          std::function<void()> body = nullptr) {
    RunnableSpec spec;
    spec.name = name;
    spec.execution_time = cost;
    spec.body = std::move(body);
    return rte.register_runnable(component, spec);
  }
};

// --- model registration -------------------------------------------------------

TEST_F(RteTest, RegistersHierarchy) {
  const ApplicationId app = rte.register_application("App");
  const ComponentId comp = rte.register_component(app, "Comp");
  const RunnableId r = add_runnable(comp, "R1");
  EXPECT_EQ(rte.application_of(r), app);
  EXPECT_EQ(rte.component_of(r), comp);
  EXPECT_EQ(rte.runnable_name(r), "R1");
  EXPECT_EQ(rte.application_name(app), "App");
  EXPECT_EQ(rte.runnable_count(), 1u);
}

TEST_F(RteTest, BadComponentRejected) {
  EXPECT_THROW(rte.register_component(ApplicationId{}, "x"),
               std::invalid_argument);
  RunnableSpec spec;
  spec.name = "r";
  EXPECT_THROW(rte.register_runnable(ComponentId(9), spec),
               std::invalid_argument);
}

TEST_F(RteTest, MappingOrderDefinesSequence) {
  const ApplicationId app = rte.register_application("App");
  const ComponentId comp = rte.register_component(app, "Comp");
  const RunnableId a = add_runnable(comp, "A");
  const RunnableId b = add_runnable(comp, "B");
  const TaskId task = make_task("T");
  rte.map_runnable(a, task);
  rte.map_runnable(b, task);
  const auto& seq = rte.runnables_on_task(task);
  ASSERT_EQ(seq.size(), 2u);
  EXPECT_EQ(seq[0], a);
  EXPECT_EQ(seq[1], b);
  EXPECT_EQ(rte.task_of(a), task);
}

TEST_F(RteTest, DoubleMappingRejected) {
  const ApplicationId app = rte.register_application("App");
  const ComponentId comp = rte.register_component(app, "Comp");
  const RunnableId a = add_runnable(comp, "A");
  const TaskId task = make_task("T");
  rte.map_runnable(a, task);
  EXPECT_THROW(rte.map_runnable(a, task), std::logic_error);
}

TEST_F(RteTest, TasksOfApplicationDeduplicates) {
  const ApplicationId app = rte.register_application("App");
  const ComponentId comp = rte.register_component(app, "Comp");
  const RunnableId a = add_runnable(comp, "A");
  const RunnableId b = add_runnable(comp, "B");
  const TaskId task = make_task("T");
  rte.map_runnable(a, task);
  rte.map_runnable(b, task);
  const auto tasks = rte.tasks_of_application(app);
  ASSERT_EQ(tasks.size(), 1u);
  EXPECT_EQ(tasks[0], task);
}

TEST_F(RteTest, TasksOfApplicationFollowRegistrationOrder) {
  // First appearance over components and their runnables, not the order
  // of the map_runnable calls.
  const ApplicationId app = rte.register_application("App");
  const ComponentId first = rte.register_component(app, "First");
  const ComponentId second = rte.register_component(app, "Second");
  const RunnableId a = add_runnable(first, "A");
  const RunnableId b = add_runnable(first, "B");
  const RunnableId c = add_runnable(second, "C");
  const TaskId t1 = make_task("T1");
  const TaskId t2 = make_task("T2");
  const TaskId t3 = make_task("T3");
  rte.map_runnable(c, t1);
  rte.map_runnable(b, t2);
  rte.map_runnable(a, t3);
  EXPECT_EQ(rte.tasks_of_application(app),
            (std::vector<TaskId>{t3, t2, t1}));
}

// --- execution and glue ----------------------------------------------------------

TEST_F(RteTest, BodiesRunInMappedOrder) {
  std::vector<std::string> order;
  const ApplicationId app = rte.register_application("App");
  const ComponentId comp = rte.register_component(app, "Comp");
  const RunnableId a = add_runnable(comp, "A", Duration::micros(10),
                                    [&] { order.push_back("A"); });
  const RunnableId b = add_runnable(comp, "B", Duration::micros(10),
                                    [&] { order.push_back("B"); });
  const TaskId task = make_task("T");
  rte.map_runnable(a, task);
  rte.map_runnable(b, task);
  rte.finalize();
  kernel.start();
  kernel.activate_task(task);
  engine.run_until(SimTime(1000));
  EXPECT_EQ(order, (std::vector<std::string>{"A", "B"}));
  EXPECT_EQ(rte.executions(a), 1u);
  EXPECT_EQ(rte.executions(b), 1u);
}

TEST_F(RteTest, HeartbeatEmittedPerRunnableCompletion) {
  std::vector<std::pair<RunnableId, TaskId>> beats;
  const ApplicationId app = rte.register_application("App");
  const ComponentId comp = rte.register_component(app, "Comp");
  const RunnableId a = add_runnable(comp, "A");
  const TaskId task = make_task("T");
  rte.map_runnable(a, task);
  rte.add_heartbeat_listener(
      [&](RunnableId r, TaskId t, SimTime) { beats.emplace_back(r, t); });
  rte.finalize();
  kernel.start();
  kernel.activate_task(task);
  engine.run_until(SimTime(1000));
  ASSERT_EQ(beats.size(), 1u);
  EXPECT_EQ(beats[0].first, a);
  EXPECT_EQ(beats[0].second, task);
}

TEST_F(RteTest, SuppressedHeartbeatStillRunsBody) {
  int body_runs = 0;
  int beats = 0;
  const ApplicationId app = rte.register_application("App");
  const ComponentId comp = rte.register_component(app, "Comp");
  const RunnableId a = add_runnable(comp, "A", Duration::micros(10),
                                    [&] { ++body_runs; });
  const TaskId task = make_task("T");
  rte.map_runnable(a, task);
  rte.add_heartbeat_listener([&](RunnableId, TaskId, SimTime) { ++beats; });
  rte.finalize();
  rte.control(a).suppress_heartbeat = true;
  kernel.start();
  kernel.activate_task(task);
  engine.run_until(SimTime(1000));
  EXPECT_EQ(body_runs, 1);
  EXPECT_EQ(beats, 0);
}

TEST_F(RteTest, SkipBodyStillHeartbeats) {
  int body_runs = 0;
  int beats = 0;
  const ApplicationId app = rte.register_application("App");
  const ComponentId comp = rte.register_component(app, "Comp");
  const RunnableId a = add_runnable(comp, "A", Duration::micros(10),
                                    [&] { ++body_runs; });
  const TaskId task = make_task("T");
  rte.map_runnable(a, task);
  rte.add_heartbeat_listener([&](RunnableId, TaskId, SimTime) { ++beats; });
  rte.finalize();
  rte.control(a).skip_body = true;
  kernel.start();
  kernel.activate_task(task);
  engine.run_until(SimTime(1000));
  EXPECT_EQ(body_runs, 0);
  EXPECT_EQ(beats, 1);
}

TEST_F(RteTest, TimeScaleStretchesExecution) {
  SimTime done;
  const ApplicationId app = rte.register_application("App");
  const ComponentId comp = rte.register_component(app, "Comp");
  const RunnableId a = add_runnable(comp, "A", Duration::micros(100),
                                    [&] { done = engine.now(); });
  const TaskId task = make_task("T");
  rte.map_runnable(a, task);
  rte.finalize();
  rte.control(a).time_scale = 3.0;
  kernel.start();
  kernel.activate_task(task);
  engine.run_until(SimTime(10'000));
  EXPECT_EQ(done, SimTime(300));
}

TEST_F(RteTest, RepeatZeroDropsRunnable) {
  int a_runs = 0, b_runs = 0;
  const ApplicationId app = rte.register_application("App");
  const ComponentId comp = rte.register_component(app, "Comp");
  const RunnableId a = add_runnable(comp, "A", Duration::micros(10),
                                    [&] { ++a_runs; });
  const RunnableId b = add_runnable(comp, "B", Duration::micros(10),
                                    [&] { ++b_runs; });
  const TaskId task = make_task("T");
  rte.map_runnable(a, task);
  rte.map_runnable(b, task);
  rte.finalize();
  rte.control(a).repeat = 0;
  kernel.start();
  kernel.activate_task(task);
  engine.run_until(SimTime(1000));
  EXPECT_EQ(a_runs, 0);
  EXPECT_EQ(b_runs, 1);
}

TEST_F(RteTest, RepeatDuplicatesRunnable) {
  int a_runs = 0;
  const ApplicationId app = rte.register_application("App");
  const ComponentId comp = rte.register_component(app, "Comp");
  const RunnableId a = add_runnable(comp, "A", Duration::micros(10),
                                    [&] { ++a_runs; });
  const TaskId task = make_task("T");
  rte.map_runnable(a, task);
  rte.finalize();
  rte.control(a).repeat = 3;
  kernel.start();
  kernel.activate_task(task);
  engine.run_until(SimTime(1000));
  EXPECT_EQ(a_runs, 3);
}

TEST_F(RteTest, SequenceTransformerRewritesJob) {
  std::vector<std::string> order;
  const ApplicationId app = rte.register_application("App");
  const ComponentId comp = rte.register_component(app, "Comp");
  const RunnableId a = add_runnable(comp, "A", Duration::micros(10),
                                    [&] { order.push_back("A"); });
  const RunnableId b = add_runnable(comp, "B", Duration::micros(10),
                                    [&] { order.push_back("B"); });
  const TaskId task = make_task("T");
  rte.map_runnable(a, task);
  rte.map_runnable(b, task);
  rte.finalize();
  rte.set_sequence_transformer(task, [](std::vector<RunnableId> seq) {
    std::reverse(seq.begin(), seq.end());
    return seq;
  });
  kernel.start();
  kernel.activate_task(task);
  engine.run_until(SimTime(1000));
  EXPECT_EQ(order, (std::vector<std::string>{"B", "A"}));
  rte.clear_sequence_transformer(task);
  kernel.activate_task(task);
  engine.run_until(SimTime(2000));
  EXPECT_EQ(order, (std::vector<std::string>{"B", "A", "A", "B"}));
}

// --- application lifecycle -----------------------------------------------------------

TEST_F(RteTest, DisabledApplicationDropsOutOfJobs) {
  int runs = 0;
  const ApplicationId app = rte.register_application("App");
  const ComponentId comp = rte.register_component(app, "Comp");
  const RunnableId a = add_runnable(comp, "A", Duration::micros(10),
                                    [&] { ++runs; });
  const TaskId task = make_task("T");
  rte.map_runnable(a, task);
  rte.finalize();
  kernel.start();
  rte.set_application_enabled(app, false);
  kernel.activate_task(task);
  engine.run_until(SimTime(1000));
  EXPECT_EQ(runs, 0);
  rte.set_application_enabled(app, true);
  kernel.activate_task(task);
  engine.run_until(SimTime(2000));
  EXPECT_EQ(runs, 1);
}

TEST_F(RteTest, SharedTaskSurvivesOtherAppTermination) {
  int a_runs = 0, b_runs = 0;
  const ApplicationId app_a = rte.register_application("A");
  const ApplicationId app_b = rte.register_application("B");
  const ComponentId comp_a = rte.register_component(app_a, "CA");
  const ComponentId comp_b = rte.register_component(app_b, "CB");
  const RunnableId ra = add_runnable(comp_a, "RA", Duration::micros(10),
                                     [&] { ++a_runs; });
  const RunnableId rb = add_runnable(comp_b, "RB", Duration::micros(10),
                                     [&] { ++b_runs; });
  const TaskId task = make_task("Shared");
  rte.map_runnable(ra, task);
  rte.map_runnable(rb, task);
  rte.finalize();
  kernel.start();
  rte.set_application_enabled(app_a, false);
  kernel.activate_task(task);
  engine.run_until(SimTime(1000));
  EXPECT_EQ(a_runs, 0);
  EXPECT_EQ(b_runs, 1);
}

TEST_F(RteTest, RestartCountsAndKillsTasks) {
  const ApplicationId app = rte.register_application("App");
  const ComponentId comp = rte.register_component(app, "Comp");
  const RunnableId a = add_runnable(comp, "A", Duration::micros(10'000));
  const TaskId task = make_task("T");
  rte.map_runnable(a, task);
  rte.finalize();
  kernel.start();
  kernel.activate_task(task);
  engine.run_until(SimTime(1000));  // mid-job
  EXPECT_EQ(kernel.task_state(task), os::TaskState::kRunning);
  rte.restart_application(app);
  EXPECT_EQ(kernel.task_state(task), os::TaskState::kSuspended);
  EXPECT_EQ(rte.restart_count(app), 1u);
}

TEST_F(RteTest, FinalizeTwiceRejected) {
  rte.finalize();
  EXPECT_THROW(rte.finalize(), std::logic_error);
}

// --- signal bus -------------------------------------------------------------------------

TEST(SignalBus, PublishAndRead) {
  SignalBus bus;
  EXPECT_FALSE(bus.read("x").has_value());
  EXPECT_DOUBLE_EQ(bus.read_or("x", 7.0), 7.0);
  bus.publish("x", 1.5, SimTime(10));
  EXPECT_DOUBLE_EQ(*bus.read("x"), 1.5);
  EXPECT_DOUBLE_EQ(bus.read_or("x", 7.0), 1.5);
}

TEST(SignalBus, LastIsBestSemantics) {
  SignalBus bus;
  bus.publish("x", 1.0, SimTime(10));
  bus.publish("x", 2.0, SimTime(20));
  const auto entry = bus.entry("x");
  ASSERT_TRUE(entry.has_value());
  EXPECT_DOUBLE_EQ(entry->value, 2.0);
  EXPECT_EQ(entry->updated_at, SimTime(20));
  EXPECT_EQ(entry->updates, 2u);
}

TEST(SignalBus, ObserversSeeEveryPublish) {
  SignalBus bus;
  int notifications = 0;
  bus.add_observer([&](const std::string&, double, SimTime) {
    ++notifications;
  });
  bus.publish("a", 1.0, SimTime(0));
  bus.publish("b", 2.0, SimTime(0));
  EXPECT_EQ(notifications, 2);
}

TEST(SignalBus, NamesListsSignals) {
  SignalBus bus;
  bus.publish("a", 1.0, SimTime(0));
  bus.publish("b", 2.0, SimTime(0));
  EXPECT_EQ(bus.names().size(), 2u);
  EXPECT_TRUE(bus.has("a"));
  EXPECT_FALSE(bus.has("c"));
}

// --- Ecu --------------------------------------------------------------------------------

TEST(Ecu, BundlesKernelRteSignals) {
  Engine engine;
  Ecu ecu(engine, "node");
  EXPECT_EQ(ecu.name(), "node");
  ecu.start();
  EXPECT_TRUE(ecu.kernel().started());
  ecu.software_reset();
  EXPECT_TRUE(ecu.kernel().started());
  EXPECT_EQ(ecu.kernel().reset_count(), 1u);
}

}  // namespace
}  // namespace easis::rte
