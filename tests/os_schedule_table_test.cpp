// Unit tests for the OSEKTime-style time-triggered schedule table.
#include <gtest/gtest.h>

#include <vector>

#include "os/kernel.hpp"
#include "os/schedule_table.hpp"
#include "sim/engine.hpp"

namespace easis::os {
namespace {

using sim::Duration;
using sim::Engine;
using sim::SimTime;

class ScheduleTableTest : public ::testing::Test {
 protected:
  Engine engine;
  Kernel kernel{engine};

  TaskId make_task(const std::string& name, Priority priority,
                   Duration cost, std::vector<SimTime>* runs = nullptr) {
    TaskConfig config;
    config.name = name;
    config.priority = priority;
    const TaskId id = kernel.create_task(config);
    kernel.set_job_factory(id, [this, cost, runs](Job& job) {
      Segment s;
      s.cost = cost;
      if (runs != nullptr) {
        s.on_complete = [this, runs] { runs->push_back(engine.now()); };
      }
      job.push_back(std::move(s));
    });
    return id;
  }
};

TEST_F(ScheduleTableTest, DispatchesAtConfiguredOffsets) {
  std::vector<SimTime> a_runs, b_runs;
  const TaskId a = make_task("a", 5, Duration::micros(100), &a_runs);
  const TaskId b = make_task("b", 5, Duration::micros(100), &b_runs);
  ScheduleTable table(kernel, "tt", Duration::millis(10));
  table.add_expiry_point({Duration::millis(0), a, Duration::millis(2)});
  table.add_expiry_point({Duration::millis(5), b, Duration::millis(2)});
  kernel.start();
  table.start();
  engine.run_until(SimTime(25'000));
  ASSERT_EQ(a_runs.size(), 3u);  // t = 0, 10, 20 ms
  ASSERT_EQ(b_runs.size(), 2u);  // t = 5, 15 ms
  EXPECT_EQ(a_runs[0], SimTime(100));
  EXPECT_EQ(a_runs[1], SimTime(10'100));
  EXPECT_EQ(b_runs[0], SimTime(5'100));
}

TEST_F(ScheduleTableTest, InitialOffsetDelaysFirstRound) {
  std::vector<SimTime> runs;
  const TaskId a = make_task("a", 5, Duration::micros(100), &runs);
  ScheduleTable table(kernel, "tt", Duration::millis(10));
  table.add_expiry_point({Duration::millis(0), a});
  kernel.start();
  table.start(Duration::millis(3));
  engine.run_until(SimTime(20'000));
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0], SimTime(3'100));
  EXPECT_EQ(runs[1], SimTime(13'100));
}

TEST_F(ScheduleTableTest, StopHaltsDispatching) {
  std::vector<SimTime> runs;
  const TaskId a = make_task("a", 5, Duration::micros(100), &runs);
  ScheduleTable table(kernel, "tt", Duration::millis(10));
  table.add_expiry_point({Duration::millis(0), a});
  kernel.start();
  table.start();
  engine.run_until(SimTime(15'000));
  table.stop();
  EXPECT_EQ(engine.pending_events(), 0u);  // no stale dispatch left queued
  engine.run_until(SimTime(100'000));
  EXPECT_EQ(runs.size(), 2u);
  EXPECT_FALSE(table.running());
}

TEST_F(ScheduleTableTest, RestartAfterStopWorks) {
  std::vector<SimTime> runs;
  const TaskId a = make_task("a", 5, Duration::micros(100), &runs);
  ScheduleTable table(kernel, "tt", Duration::millis(10));
  table.add_expiry_point({Duration::millis(0), a});
  kernel.start();
  table.start();
  engine.run_until(SimTime(5'000));
  table.stop();
  EXPECT_EQ(engine.pending_events(), 0u);
  engine.run_until(SimTime(50'000));
  table.start();
  engine.run_until(SimTime(55'000));
  EXPECT_EQ(runs.size(), 2u);  // one from each started interval
}

TEST_F(ScheduleTableTest, RoundsCounted) {
  const TaskId a = make_task("a", 5, Duration::micros(100));
  ScheduleTable table(kernel, "tt", Duration::millis(10));
  table.add_expiry_point({Duration::millis(0), a});
  kernel.start();
  table.start();
  engine.run_until(SimTime(35'000));
  EXPECT_EQ(table.rounds_completed(), 3u);
}

TEST_F(ScheduleTableTest, OffsetOutsideRoundRejected) {
  const TaskId a = make_task("a", 5, Duration::micros(100));
  ScheduleTable table(kernel, "tt", Duration::millis(10));
  EXPECT_THROW(table.add_expiry_point({Duration::millis(10), a}),
               std::invalid_argument);
  EXPECT_THROW(table.add_expiry_point({Duration::millis(-1), a}),
               std::invalid_argument);
}

TEST_F(ScheduleTableTest, ModificationWhileRunningRejected) {
  const TaskId a = make_task("a", 5, Duration::micros(100));
  ScheduleTable table(kernel, "tt", Duration::millis(10));
  table.add_expiry_point({Duration::millis(0), a});
  kernel.start();
  table.start();
  EXPECT_THROW(table.add_expiry_point({Duration::millis(1), a}),
               std::logic_error);
  EXPECT_THROW(table.start(), std::logic_error);
}

TEST_F(ScheduleTableTest, ExpiryPointsSortedByOffset) {
  const TaskId a = make_task("a", 5, Duration::micros(100));
  const TaskId b = make_task("b", 5, Duration::micros(100));
  ScheduleTable table(kernel, "tt", Duration::millis(10));
  table.add_expiry_point({Duration::millis(7), a});
  table.add_expiry_point({Duration::millis(2), b});
  ASSERT_EQ(table.expiry_points().size(), 2u);
  EXPECT_EQ(table.expiry_points()[0].task, b);
  EXPECT_EQ(table.expiry_points()[1].task, a);
}

TEST_F(ScheduleTableTest, ZeroRoundRejected) {
  EXPECT_THROW(ScheduleTable(kernel, "bad", Duration::zero()),
               std::invalid_argument);
}

}  // namespace
}  // namespace easis::os
