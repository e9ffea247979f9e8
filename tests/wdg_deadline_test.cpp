// Tests for the Deadline Supervision Unit and its facade integration
// (checkpoint-pair timing, the extension closing the rate-preserving
// slowdown gap).
#include <gtest/gtest.h>

#include <vector>

#include "wdg/deadline.hpp"
#include "wdg/watchdog.hpp"

namespace easis::wdg {
namespace {

using sim::Duration;
using sim::SimTime;

DeadlinePair pair(std::uint32_t start, std::uint32_t end,
                  std::int64_t max_us, std::int64_t min_us = 0) {
  DeadlinePair p;
  p.name = "pair";
  p.start = RunnableId(start);
  p.end = RunnableId(end);
  p.min = Duration::micros(min_us);
  p.max = Duration::micros(max_us);
  return p;
}

struct DeadlineLog {
  struct Entry {
    std::size_t index;
    sim::Duration measured;
  };
  std::vector<Entry> errors;
  DeadlineSupervisionUnit::ErrorCallback callback() {
    return [this](std::size_t i, sim::Duration d, SimTime) {
      errors.push_back({i, d});
    };
  }
};

TEST(DeadlineUnit, InWindowMeasurementPasses) {
  DeadlineSupervisionUnit unit;
  unit.add_pair(pair(1, 2, 1'000));
  DeadlineLog log;
  unit.on_execution(RunnableId(1), SimTime(0), log.callback());
  EXPECT_TRUE(unit.armed(0));
  unit.on_execution(RunnableId(2), SimTime(600), log.callback());
  EXPECT_TRUE(log.errors.empty());
  EXPECT_FALSE(unit.armed(0));
  EXPECT_EQ(unit.measurements(), 1u);
  ASSERT_TRUE(unit.last_measured(0).has_value());
  EXPECT_EQ(unit.last_measured(0)->as_micros(), 600);
}

TEST(DeadlineUnit, TooSlowFlagged) {
  DeadlineSupervisionUnit unit;
  unit.add_pair(pair(1, 2, 1'000));
  DeadlineLog log;
  unit.on_execution(RunnableId(1), SimTime(0), log.callback());
  unit.on_execution(RunnableId(2), SimTime(1'500), log.callback());
  ASSERT_EQ(log.errors.size(), 1u);
  EXPECT_EQ(log.errors[0].measured.as_micros(), 1'500);
}

TEST(DeadlineUnit, TooFastFlaggedWithMinWindow) {
  DeadlineSupervisionUnit unit;
  unit.add_pair(pair(1, 2, 1'000, /*min_us=*/200));
  DeadlineLog log;
  unit.on_execution(RunnableId(1), SimTime(0), log.callback());
  unit.on_execution(RunnableId(2), SimTime(50), log.callback());
  ASSERT_EQ(log.errors.size(), 1u);
  EXPECT_EQ(log.errors[0].measured.as_micros(), 50);
}

TEST(DeadlineUnit, EndWithoutStartIgnored) {
  DeadlineSupervisionUnit unit;
  unit.add_pair(pair(1, 2, 1'000));
  DeadlineLog log;
  unit.on_execution(RunnableId(2), SimTime(100), log.callback());
  EXPECT_TRUE(log.errors.empty());
  EXPECT_EQ(unit.measurements(), 0u);
}

TEST(DeadlineUnit, RepeatedStartRearmsFromLatest) {
  DeadlineSupervisionUnit unit;
  unit.add_pair(pair(1, 2, 1'000));
  DeadlineLog log;
  unit.on_execution(RunnableId(1), SimTime(0), log.callback());
  unit.on_execution(RunnableId(1), SimTime(5'000), log.callback());
  unit.on_execution(RunnableId(2), SimTime(5'400), log.callback());
  EXPECT_TRUE(log.errors.empty());  // measured 400 from the latest start
  EXPECT_EQ(unit.last_measured(0)->as_micros(), 400);
}

TEST(DeadlineUnit, IndependentPairs) {
  DeadlineSupervisionUnit unit;
  unit.add_pair(pair(1, 2, 1'000));
  unit.add_pair(pair(3, 4, 100));
  DeadlineLog log;
  unit.on_execution(RunnableId(1), SimTime(0), log.callback());
  unit.on_execution(RunnableId(3), SimTime(0), log.callback());
  unit.on_execution(RunnableId(4), SimTime(500), log.callback());  // > 100
  unit.on_execution(RunnableId(2), SimTime(800), log.callback());  // ok
  ASSERT_EQ(log.errors.size(), 1u);
  EXPECT_EQ(log.errors[0].index, 1u);
}

TEST(DeadlineUnit, SharedCheckpointAcrossPairs) {
  // Runnable 2 ends pair 0 and starts pair 1.
  DeadlineSupervisionUnit unit;
  unit.add_pair(pair(1, 2, 1'000));
  unit.add_pair(pair(2, 3, 1'000));
  DeadlineLog log;
  unit.on_execution(RunnableId(1), SimTime(0), log.callback());
  unit.on_execution(RunnableId(2), SimTime(400), log.callback());
  unit.on_execution(RunnableId(3), SimTime(900), log.callback());
  EXPECT_TRUE(log.errors.empty());
  EXPECT_EQ(unit.measurements(), 2u);
  EXPECT_EQ(unit.last_measured(1)->as_micros(), 500);
}

TEST(DeadlineUnit, ResetDisarmsEverything) {
  DeadlineSupervisionUnit unit;
  unit.add_pair(pair(1, 2, 1'000));
  DeadlineLog log;
  unit.on_execution(RunnableId(1), SimTime(0), log.callback());
  unit.reset();
  EXPECT_FALSE(unit.armed(0));
  unit.on_execution(RunnableId(2), SimTime(100'000), log.callback());
  EXPECT_TRUE(log.errors.empty());  // stale start discarded
}

TEST(DeadlineUnit, BadConfigRejected) {
  DeadlineSupervisionUnit unit;
  EXPECT_THROW(unit.add_pair(pair(1, 1, 1'000)), std::invalid_argument);
  EXPECT_THROW(unit.add_pair(pair(1, 2, 0)), std::invalid_argument);
  EXPECT_THROW(unit.add_pair(pair(1, 2, 100, 200)), std::invalid_argument);
  EXPECT_THROW((void)unit.pair(0), std::out_of_range);
  EXPECT_THROW((void)unit.armed(0), std::out_of_range);
}

// --- facade integration ---------------------------------------------------------

class DeadlineFacadeTest : public ::testing::Test {
 protected:
  SoftwareWatchdog wd{[] {
    WatchdogConfig c;
    c.check_period = Duration::millis(10);
    c.deadline_threshold = 2;
    return c;
  }()};
  std::vector<ErrorReport> errors;

  void SetUp() override {
    for (std::uint32_t id : {1u, 2u}) {
      RunnableMonitor m;
      m.runnable = RunnableId(id);
      m.task = TaskId(0);
      m.application = ApplicationId(0);
      m.name = std::string("r").append(std::to_string(id));
      m.aliveness_cycles = 100;
      m.min_heartbeats = 1;
      m.arrival_cycles = 100;
      m.max_arrivals = 1000;
      m.program_flow = false;
      wd.add_runnable(m);
    }
    wd.add_deadline_pair(pair(1, 2, 1'000));
    wd.add_error_listener(
        [this](const ErrorReport& r) { errors.push_back(r); });
  }
};

TEST_F(DeadlineFacadeTest, ViolationReportedWithContext) {
  wd.indicate_aliveness(RunnableId(1), TaskId(0), SimTime(0));
  wd.indicate_aliveness(RunnableId(2), TaskId(0), SimTime(5'000));
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].type, ErrorType::kDeadline);
  EXPECT_EQ(errors[0].runnable, RunnableId(2));  // end checkpoint
  EXPECT_EQ(errors[0].related, RunnableId(1));   // start checkpoint
  EXPECT_NE(errors[0].detail.find("outside"), std::string::npos);
  EXPECT_EQ(wd.tsi_unit().error_count(RunnableId(2), ErrorType::kDeadline),
            1u);
}

TEST_F(DeadlineFacadeTest, ThresholdDrivesTaskFaulty) {
  for (int i = 0; i < 2; ++i) {
    wd.indicate_aliveness(RunnableId(1), TaskId(0), SimTime(i * 100'000));
    wd.indicate_aliveness(RunnableId(2), TaskId(0),
                          SimTime(i * 100'000 + 5'000));
  }
  EXPECT_EQ(wd.task_health(TaskId(0)), Health::kFaulty);
}

TEST_F(DeadlineFacadeTest, InWindowStaysSilent) {
  wd.indicate_aliveness(RunnableId(1), TaskId(0), SimTime(0));
  wd.indicate_aliveness(RunnableId(2), TaskId(0), SimTime(500));
  EXPECT_TRUE(errors.empty());
  EXPECT_EQ(wd.deadline_unit().measurements(), 1u);
}

TEST_F(DeadlineFacadeTest, UnmonitoredCheckpointRejected) {
  EXPECT_THROW(wd.add_deadline_pair(pair(1, 99, 1'000)), std::logic_error);
}

TEST_F(DeadlineFacadeTest, ResetDisarmsPairs) {
  wd.indicate_aliveness(RunnableId(1), TaskId(0), SimTime(0));
  wd.reset(SimTime(1'000));
  wd.indicate_aliveness(RunnableId(2), TaskId(0), SimTime(900'000));
  EXPECT_TRUE(errors.empty());
}

TEST_F(DeadlineFacadeTest, SeverityIsMajor) {
  EXPECT_EQ(SoftwareWatchdog::severity_of(ErrorType::kDeadline),
            Severity::kMajor);
}

}  // namespace
}  // namespace easis::wdg
