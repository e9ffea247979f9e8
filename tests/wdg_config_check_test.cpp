// Tests for the watchdog configuration checker and the dynamic hypothesis
// reconfiguration API.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "wdg/config_check.hpp"
#include "wdg/watchdog.hpp"

namespace easis::wdg {
namespace {

using sim::Duration;
using sim::SimTime;

WatchdogConfig base_config() {
  WatchdogConfig c;
  c.check_period = Duration::millis(10);
  return c;
}

RunnableMonitor monitor(std::uint32_t id, std::uint32_t task = 0,
                        std::uint32_t cycles = 4, std::uint32_t min_hb = 3,
                        std::uint32_t max_arr = 5, bool flow = true) {
  RunnableMonitor m;
  m.runnable = RunnableId(id);
  m.task = TaskId(task);
  m.application = ApplicationId(0);
  m.name = std::string("r").append(std::to_string(id));
  m.aliveness_cycles = cycles;
  m.min_heartbeats = min_hb;
  m.arrival_cycles = cycles;
  m.max_arrivals = max_arr;
  m.program_flow = flow;
  return m;
}

int errors_in(const std::vector<ConfigFinding>& findings) {
  int n = 0;
  for (const auto& f : findings) {
    if (f.severity == FindingSeverity::kError) ++n;
  }
  return n;
}

TEST(ConfigCheck, CleanConfigurationPasses) {
  SoftwareWatchdog wd(base_config());
  wd.add_runnable(monitor(1));
  wd.add_runnable(monitor(2));
  wd.add_flow_entry_point(RunnableId(1));
  wd.add_flow_edge(RunnableId(1), RunnableId(2));
  wd.add_flow_edge(RunnableId(2), RunnableId(1));
  const auto findings = ConfigChecker::check(
      wd, [](RunnableId) { return Duration::millis(10); });
  EXPECT_TRUE(ConfigChecker::acceptable(findings)) << findings.size();
  EXPECT_EQ(errors_in(findings), 0);
}

TEST(ConfigCheck, ImpossibleMinHeartbeatsIsError) {
  SoftwareWatchdog wd(base_config());
  // 4 cycles x 10 ms window with a 50 ms period: at most 0 heartbeats
  // guaranteed, but 3 required.
  wd.add_runnable(monitor(1, 0, 4, 3, 10, /*flow=*/false));
  const auto findings = ConfigChecker::check(
      wd, [](RunnableId) { return Duration::millis(50); });
  EXPECT_FALSE(ConfigChecker::acceptable(findings));
}

TEST(ConfigCheck, TooLowMaxArrivalsIsError) {
  SoftwareWatchdog wd(base_config());
  // 40 ms window at a 5 ms period: 8 arrivals, but only 5 allowed.
  wd.add_runnable(monitor(1, 0, 4, 1, 5, /*flow=*/false));
  const auto findings = ConfigChecker::check(
      wd, [](RunnableId) { return Duration::millis(5); });
  EXPECT_FALSE(ConfigChecker::acceptable(findings));
}

TEST(ConfigCheck, VacuousAlivenessIsWarning) {
  SoftwareWatchdog wd(base_config());
  auto m = monitor(1, 0, 4, /*min_hb=*/0, 5, false);
  wd.add_runnable(m);
  const auto findings = ConfigChecker::check(wd);
  EXPECT_TRUE(ConfigChecker::acceptable(findings));  // warning only
  EXPECT_FALSE(findings.empty());
}

TEST(ConfigCheck, NothingMonitoredIsWarning) {
  SoftwareWatchdog wd(base_config());
  auto m = monitor(1, 0, 4, 1, 5, /*flow=*/false);
  m.monitor_aliveness = false;
  m.monitor_arrival_rate = false;
  wd.add_runnable(m);
  const auto findings = ConfigChecker::check(wd);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].severity, FindingSeverity::kWarning);
}

TEST(ConfigCheck, VirtualRunnableYieldsNoFinding) {
  SoftwareWatchdog wd(base_config());
  wd.add_virtual_runnable(RunnableId(1), TaskId(0), ApplicationId(0),
                          "com:speed");
  EXPECT_TRUE(wd.is_virtual(RunnableId(1)));
  EXPECT_TRUE(ConfigChecker::check(wd).empty());
  EXPECT_TRUE(
      ConfigChecker::check(wd, [](RunnableId) { return Duration::millis(10); })
          .empty());
}

TEST(ConfigCheck, EnforceThrowsOnErrorNamingTheOwner) {
  SoftwareWatchdog wd(base_config());
  wd.add_runnable(monitor(1, 0, 4, 3, 10, /*flow=*/false));
  const auto period = [](RunnableId) { return Duration::millis(50); };
  try {
    ConfigChecker::enforce(wd, period, "TestNode");
    FAIL() << "expected std::logic_error";
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    EXPECT_EQ(what.rfind("TestNode: watchdog configuration invalid\n", 0), 0u)
        << what;
    EXPECT_NE(what.find("ERROR [runnable"), std::string::npos) << what;
  }
  SoftwareWatchdog clean(base_config());
  clean.add_runnable(monitor(1, 0, 4, /*min_hb=*/0, 5, /*flow=*/false));
  EXPECT_NO_THROW(ConfigChecker::enforce(clean, {}, "TestNode"));  // warning
}

TEST(ConfigCheck, UnreachableFlowRunnableIsError) {
  SoftwareWatchdog wd(base_config());
  wd.add_runnable(monitor(1));
  wd.add_runnable(monitor(2));
  wd.add_runnable(monitor(3));
  wd.add_flow_entry_point(RunnableId(1));
  wd.add_flow_edge(RunnableId(1), RunnableId(2));
  wd.add_flow_edge(RunnableId(2), RunnableId(1));
  // Runnable 3 is flow-monitored on the same task but unreachable.
  const auto findings = ConfigChecker::check(wd);
  EXPECT_FALSE(ConfigChecker::acceptable(findings));
}

TEST(ConfigCheck, CrossTaskEdgeIsError) {
  SoftwareWatchdog wd(base_config());
  wd.add_runnable(monitor(1, /*task=*/0));
  wd.add_runnable(monitor(2, /*task=*/1));
  wd.add_flow_edge(RunnableId(1), RunnableId(2));
  const auto findings = ConfigChecker::check(wd);
  EXPECT_FALSE(ConfigChecker::acceptable(findings));
}

TEST(ConfigCheck, EdgeToUnmonitoredIsWarning) {
  SoftwareWatchdog wd(base_config());
  wd.add_runnable(monitor(1));
  wd.add_flow_edge(RunnableId(1), RunnableId(99));
  const auto findings = ConfigChecker::check(wd);
  EXPECT_TRUE(ConfigChecker::acceptable(findings));
  bool found = false;
  for (const auto& f : findings) {
    if (f.message.find("inert") != std::string::npos) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(ConfigCheck, DeadEndIsWarning) {
  SoftwareWatchdog wd(base_config());
  wd.add_runnable(monitor(1));
  wd.add_runnable(monitor(2));
  wd.add_flow_entry_point(RunnableId(1));
  wd.add_flow_edge(RunnableId(1), RunnableId(2));
  // Runnable 2 has no successor: the wrap back to 1 is missing.
  const auto findings = ConfigChecker::check(wd);
  EXPECT_TRUE(ConfigChecker::acceptable(findings));
  bool found = false;
  for (const auto& f : findings) {
    if (f.message.find("dead end") != std::string::npos) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(ConfigCheck, MissingEntryPointsIsWarning) {
  SoftwareWatchdog wd(base_config());
  wd.add_runnable(monitor(1));
  wd.add_runnable(monitor(2));
  wd.add_flow_edge(RunnableId(1), RunnableId(2));
  wd.add_flow_edge(RunnableId(2), RunnableId(1));
  const auto findings = ConfigChecker::check(wd);
  EXPECT_TRUE(ConfigChecker::acceptable(findings));
  EXPECT_FALSE(findings.empty());
}

TEST(ConfigCheck, WriteRendersFindings) {
  SoftwareWatchdog wd(base_config());
  wd.add_runnable(monitor(1, 0, 4, 0, 5, false));
  const auto findings = ConfigChecker::check(wd);
  std::ostringstream out;
  ConfigChecker::write(out, findings);
  EXPECT_NE(out.str().find("warning"), std::string::npos);
  std::ostringstream empty_out;
  ConfigChecker::write(empty_out, {});
  EXPECT_NE(empty_out.str().find("no findings"), std::string::npos);
}

TEST(ConfigCheck, SporadicRunnablesSkipTimingChecks) {
  SoftwareWatchdog wd(base_config());
  wd.add_runnable(monitor(1, 0, 4, 3, 1, /*flow=*/false));
  // Zero period marks the runnable sporadic: no timing findings.
  const auto findings = ConfigChecker::check(
      wd, [](RunnableId) { return Duration::zero(); });
  EXPECT_EQ(errors_in(findings), 0);
}

// --- dynamic hypothesis reconfiguration ------------------------------------------

TEST(UpdateHypothesis, ReplacesParametersAndResetsCounters) {
  SoftwareWatchdog wd(base_config());
  wd.add_runnable(monitor(1, 0, 4, 3, 5, false));
  wd.indicate_aliveness(RunnableId(1), TaskId(0), SimTime(0));
  wd.main_function(SimTime(0));
  EXPECT_EQ(wd.heartbeat_unit().cca(RunnableId(1)), 1u);
  wd.update_hypothesis(RunnableId(1), 8, 1, 8, 20);
  EXPECT_EQ(wd.heartbeat_unit().cca(RunnableId(1)), 0u);
  EXPECT_EQ(wd.heartbeat_unit().ac(RunnableId(1)), 0u);
  const auto& cfg = wd.heartbeat_unit().config(RunnableId(1));
  EXPECT_EQ(cfg.aliveness_cycles, 8u);
  EXPECT_EQ(cfg.min_heartbeats, 1u);
  EXPECT_EQ(cfg.max_arrivals, 20u);
}

TEST(UpdateHypothesis, RelaxedHypothesisStopsErrors) {
  SoftwareWatchdog wd(base_config());
  wd.add_runnable(monitor(1, 0, 2, 1, 5, false));
  int errors = 0;
  wd.add_error_listener([&](const ErrorReport&) { ++errors; });
  // One heartbeat every 4 cycles: too slow for a 2-cycle window.
  for (int i = 0; i < 8; ++i) {
    if (i % 4 == 0) wd.indicate_aliveness(RunnableId(1), TaskId(0), SimTime(i));
    wd.main_function(SimTime(i));
  }
  EXPECT_GT(errors, 0);
  const int before = errors;
  wd.update_hypothesis(RunnableId(1), 4, 1, 4, 10);
  for (int i = 8; i < 24; ++i) {
    if (i % 4 == 0) wd.indicate_aliveness(RunnableId(1), TaskId(0), SimTime(i));
    wd.main_function(SimTime(i));
  }
  EXPECT_EQ(errors, before);
}

TEST(UpdateHypothesis, ZeroCyclesRejected) {
  SoftwareWatchdog wd(base_config());
  wd.add_runnable(monitor(1));
  EXPECT_THROW(wd.update_hypothesis(RunnableId(1), 0, 1, 4, 5),
               std::invalid_argument);
}

}  // namespace
}  // namespace easis::wdg
