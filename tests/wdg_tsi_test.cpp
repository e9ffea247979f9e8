// Unit tests for the Task State Indication Unit: error indication vectors,
// thresholds, task/application/ECU state derivation (paper §3.2.3).
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "wdg/tsi.hpp"

namespace easis::wdg {
namespace {

using sim::SimTime;

TaskStateIndicationUnit::Thresholds thresholds(std::uint32_t t = 3) {
  TaskStateIndicationUnit::Thresholds th;
  th.by_type = {t, t, t, t, t, t};
  return th;
}

class TsiTest : public ::testing::Test {
 protected:
  TaskStateIndicationUnit tsi{thresholds(), /*ecu_faulty_task_limit=*/2};
  const RunnableId r1{RunnableId(1)};
  const RunnableId r2{RunnableId(2)};
  const RunnableId r3{RunnableId(3)};
  const TaskId t1{TaskId(0)};
  const TaskId t2{TaskId(1)};
  const ApplicationId app1{ApplicationId(0)};
  const ApplicationId app2{ApplicationId(1)};

  void SetUp() override {
    tsi.add_runnable(r1, t1, app1);
    tsi.add_runnable(r2, t1, app2);  // shared task, different application
    tsi.add_runnable(r3, t2, app2);
  }

  void report_n(RunnableId r, ErrorType type, int n) {
    for (int i = 0; i < n; ++i) tsi.report_error(r, type, SimTime(i));
  }
};

TEST_F(TsiTest, BelowThresholdStaysOk) {
  report_n(r1, ErrorType::kAliveness, 2);
  EXPECT_EQ(tsi.task_health(t1), Health::kOk);
  EXPECT_EQ(tsi.application_health(app1), Health::kOk);
  EXPECT_EQ(tsi.error_count(r1, ErrorType::kAliveness), 2u);
}

TEST_F(TsiTest, ThresholdMarksTaskFaulty) {
  report_n(r1, ErrorType::kAliveness, 3);
  EXPECT_EQ(tsi.task_health(t1), Health::kFaulty);
  EXPECT_EQ(tsi.application_health(app1), Health::kFaulty);
  EXPECT_EQ(tsi.ecu_health(), Health::kOk);  // only one faulty task
}

TEST_F(TsiTest, ErrorTypesCountSeparately) {
  report_n(r1, ErrorType::kAliveness, 2);
  report_n(r1, ErrorType::kProgramFlow, 2);
  EXPECT_EQ(tsi.task_health(t1), Health::kOk);
  report_n(r1, ErrorType::kProgramFlow, 1);
  EXPECT_EQ(tsi.task_health(t1), Health::kFaulty);
}

TEST_F(TsiTest, FaultAttributedToOwningApplicationOnly) {
  report_n(r2, ErrorType::kAliveness, 3);  // r2 belongs to app2
  EXPECT_EQ(tsi.task_health(t1), Health::kFaulty);
  EXPECT_EQ(tsi.application_health(app2), Health::kFaulty);
  EXPECT_EQ(tsi.application_health(app1), Health::kOk);
}

TEST_F(TsiTest, EcuFaultyWhenEnoughTasksFaulty) {
  report_n(r1, ErrorType::kAliveness, 3);
  EXPECT_EQ(tsi.ecu_health(), Health::kOk);
  report_n(r3, ErrorType::kAliveness, 3);
  EXPECT_EQ(tsi.ecu_health(), Health::kFaulty);
  const auto faulty = tsi.faulty_tasks();
  EXPECT_EQ(faulty.size(), 2u);
}

TEST_F(TsiTest, CallbacksFireOnTransitions) {
  std::vector<std::pair<TaskId, Health>> task_events;
  std::vector<std::pair<ApplicationId, Health>> app_events;
  std::vector<Health> ecu_events;
  tsi.set_task_state_callback([&](TaskId t, Health h, SimTime) {
    task_events.emplace_back(t, h);
  });
  tsi.set_application_state_callback([&](ApplicationId a, Health h, SimTime) {
    app_events.emplace_back(a, h);
  });
  tsi.set_ecu_state_callback([&](Health h, SimTime) {
    ecu_events.push_back(h);
  });

  report_n(r1, ErrorType::kAliveness, 3);
  ASSERT_EQ(task_events.size(), 1u);
  EXPECT_EQ(task_events[0].first, t1);
  EXPECT_EQ(task_events[0].second, Health::kFaulty);
  ASSERT_EQ(app_events.size(), 1u);
  EXPECT_TRUE(ecu_events.empty());

  report_n(r3, ErrorType::kArrivalRate, 3);
  ASSERT_EQ(ecu_events.size(), 1u);
  EXPECT_EQ(ecu_events[0], Health::kFaulty);
}

TEST_F(TsiTest, NoDuplicateCallbackForSameState) {
  int task_events = 0;
  tsi.set_task_state_callback([&](TaskId, Health, SimTime) { ++task_events; });
  report_n(r1, ErrorType::kAliveness, 5);  // stays faulty after 3
  EXPECT_EQ(task_events, 1);
}

TEST_F(TsiTest, ClearTaskRestoresOk) {
  std::vector<Health> transitions;
  tsi.set_task_state_callback(
      [&](TaskId, Health h, SimTime) { transitions.push_back(h); });
  report_n(r1, ErrorType::kAliveness, 3);
  tsi.clear_task(t1, SimTime(100));
  EXPECT_EQ(tsi.task_health(t1), Health::kOk);
  EXPECT_EQ(tsi.error_count(r1, ErrorType::kAliveness), 0u);
  ASSERT_EQ(transitions.size(), 2u);
  EXPECT_EQ(transitions[1], Health::kOk);
}

TEST_F(TsiTest, ClearTaskLeavesOtherTasksAlone) {
  report_n(r1, ErrorType::kAliveness, 3);
  report_n(r3, ErrorType::kAliveness, 3);
  tsi.clear_task(t1, SimTime(0));
  EXPECT_EQ(tsi.task_health(t1), Health::kOk);
  EXPECT_EQ(tsi.task_health(t2), Health::kFaulty);
}

TEST_F(TsiTest, ResetClearsEverything) {
  report_n(r1, ErrorType::kAliveness, 3);
  report_n(r3, ErrorType::kAliveness, 3);
  tsi.reset(SimTime(0));
  EXPECT_EQ(tsi.task_health(t1), Health::kOk);
  EXPECT_EQ(tsi.task_health(t2), Health::kOk);
  EXPECT_EQ(tsi.ecu_health(), Health::kOk);
}

TEST_F(TsiTest, ErrorCountsAggregatePerType) {
  report_n(r1, ErrorType::kAliveness, 1);
  report_n(r1, ErrorType::kArrivalRate, 2);
  report_n(r1, ErrorType::kProgramFlow, 3);
  report_n(r1, ErrorType::kAccumulatedAliveness, 1);
  EXPECT_EQ(tsi.error_count(r1, ErrorType::kAliveness), 1u);
  EXPECT_EQ(tsi.error_count(r1, ErrorType::kArrivalRate), 2u);
  EXPECT_EQ(tsi.error_count(r1, ErrorType::kProgramFlow), 3u);
  EXPECT_EQ(tsi.error_count(r1, ErrorType::kAccumulatedAliveness), 1u);
}

TEST_F(TsiTest, UnknownRunnableErrorsIgnored) {
  tsi.report_error(RunnableId(99), ErrorType::kAliveness, SimTime(0));
  EXPECT_EQ(tsi.error_count(RunnableId(99), ErrorType::kAliveness), 0u);
}

TEST_F(TsiTest, DuplicateRunnableRejected) {
  EXPECT_THROW(tsi.add_runnable(r1, t1, app1), std::logic_error);
}

// One task of one application and an ECU limit of 1: tripping the task
// makes task, application and ECU faulty in one derive. The application
// callback treats by clearing the task, as FMF restarts an application.
struct TreatedSingleTask {
  TaskStateIndicationUnit tsi{thresholds(), /*ecu_faulty_task_limit=*/1};
  std::vector<Health> ecu_seen_by_app;

  TreatedSingleTask() {
    tsi.add_runnable(RunnableId(1), TaskId(0), ApplicationId(0));
    tsi.set_application_state_callback(
        [this](ApplicationId, Health h, SimTime now) {
          if (h != Health::kFaulty) return;
          ecu_seen_by_app.push_back(tsi.ecu_health());
          tsi.clear_task(TaskId(0), now);
        });
    for (int i = 0; i < 3; ++i) {
      tsi.report_error(RunnableId(1), ErrorType::kAliveness, SimTime(i));
    }
  }
};

TEST(TsiDispatch, CallbackReadsTheStatesItsDeriveAssigned) {
  TreatedSingleTask unit;
  ASSERT_EQ(unit.ecu_seen_by_app.size(), 1u);
  EXPECT_EQ(unit.ecu_seen_by_app[0], Health::kFaulty);
}

TEST(TsiDispatch, StatesAgreeWithCountsAfterANestedClear) {
  TreatedSingleTask unit;
  EXPECT_EQ(unit.tsi.task_health(TaskId(0)), Health::kOk);
  EXPECT_EQ(unit.tsi.application_health(ApplicationId(0)), Health::kOk);
  EXPECT_EQ(unit.tsi.ecu_health(), Health::kOk);
}

TEST(TsiDispatch, TransitionsFireInIdOrder) {
  TaskStateIndicationUnit tsi(thresholds(1), /*ecu_faulty_task_limit=*/10);
  const std::vector<std::uint32_t> registered{9, 3, 7, 12, 5};
  for (const std::uint32_t t : registered) {
    tsi.add_runnable(RunnableId(t), TaskId(t), ApplicationId(0));
    tsi.report_error(RunnableId(t), ErrorType::kAliveness, SimTime(0));
  }
  std::vector<std::uint32_t> fired;
  tsi.set_task_state_callback(
      [&](TaskId t, Health, SimTime) { fired.push_back(t.value()); });
  tsi.reset(SimTime(1));
  EXPECT_EQ(fired, (std::vector<std::uint32_t>{3, 5, 7, 9, 12}));
}

TEST(TsiDispatch, ThrowingCallbackEndsTheDispatch) {
  TaskStateIndicationUnit tsi(thresholds(1), /*ecu_faulty_task_limit=*/10);
  tsi.add_runnable(RunnableId(1), TaskId(0), ApplicationId(0));
  std::vector<Health> seen;
  tsi.set_task_state_callback([&](TaskId, Health h, SimTime) {
    seen.push_back(h);
    if (h == Health::kFaulty) throw std::runtime_error("treatment failed");
  });
  EXPECT_THROW(
      tsi.report_error(RunnableId(1), ErrorType::kAliveness, SimTime(0)),
      std::runtime_error);
  tsi.clear_task(TaskId(0), SimTime(1));  // announced, not left queued
  EXPECT_EQ(seen, (std::vector<Health>{Health::kFaulty, Health::kOk}));
}

TEST(TsiConfig, ZeroEcuLimitRejected) {
  EXPECT_THROW(TaskStateIndicationUnit(thresholds(), 0),
               std::invalid_argument);
}

TEST(TsiConfig, PerTypeThresholdsIndependent) {
  TaskStateIndicationUnit::Thresholds th;
  th.by_type = {1, 5, 5, 5, 5, 5};  // aliveness threshold of 1
  TaskStateIndicationUnit tsi(th, 1);
  tsi.add_runnable(RunnableId(1), TaskId(0), ApplicationId(0));
  tsi.report_error(RunnableId(1), ErrorType::kProgramFlow, SimTime(0));
  EXPECT_EQ(tsi.task_health(TaskId(0)), Health::kOk);
  tsi.report_error(RunnableId(1), ErrorType::kAliveness, SimTime(0));
  EXPECT_EQ(tsi.task_health(TaskId(0)), Health::kFaulty);
  EXPECT_EQ(tsi.ecu_health(), Health::kFaulty);  // limit 1
}

}  // namespace
}  // namespace easis::wdg
