// Tests for the dependability-policy engine: canonical text round trips,
// baseline/defaults equivalence, compiler diagnostics (line-numbered,
// strict), catalog determinism, the check supervision unit's two failure
// modes, and the policy identity surfaced over diagnostics (DID + fleet
// health master cross-check).
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bus/can.hpp"
#include "diag/health_master.hpp"
#include "diag/protocol.hpp"
#include "diag/server.hpp"
#include "diag/tester.hpp"
#include "policy/catalog.hpp"
#include "policy/check_engine.hpp"
#include "policy/compiler.hpp"
#include "policy/policy.hpp"
#include "sim/engine.hpp"
#include "validator/central_node.hpp"
#include "validator/policy_binding.hpp"
#include "wdg/config.hpp"

namespace easis::policy {
namespace {

using sim::Duration;
using sim::SimTime;

// --- canonical text / round trip ---------------------------------------------

TEST(PolicyText, BaselineRoundTripsThroughCompiler) {
  const std::string text = baseline_text();
  const CompileResult result = compile_policy(text);
  ASSERT_TRUE(result.ok()) << result.format();
  EXPECT_EQ(to_text(*result.policy), text);
  EXPECT_EQ(version_hash(*result.policy), version_hash(baseline()));
}

TEST(PolicyText, NonTrivialPolicyRoundTrips) {
  PolicySet policy;
  policy.id = "roundtrip";
  policy.version = 7;
  policy.detection.watchdog.aliveness_threshold = 5;
  policy.detection.hbm_scale = 1.25;
  policy.detection.deadline_scale = 0.75;
  policy.escalation.fmf.max_ecu_resets = 1;
  policy.treatment.qm.on_faulty = TreatmentKind::kPark;
  CheckRule rule;
  rule.name = "overspeed";
  rule.signal = "vehicle.speed_kmh";
  rule.min = -1.0;
  rule.max = 250.0;
  rule.fallback = 0.0;
  rule.period_cycles = 5;
  rule.deadline = Duration::millis(4);
  policy.checks.push_back(rule);

  const std::string text = to_text(policy);
  const CompileResult result = compile_policy(text);
  ASSERT_TRUE(result.ok()) << result.format();
  EXPECT_EQ(to_text(*result.policy), text);
  ASSERT_EQ(result.policy->checks.size(), 1u);
  EXPECT_EQ(result.policy->checks[0].signal, "vehicle.speed_kmh");
  EXPECT_EQ(result.policy->checks[0].period_cycles, 5u);
  EXPECT_EQ(result.policy->treatment.qm.on_faulty, TreatmentKind::kPark);
}

/// The baseline policy must reproduce the platform defaults exactly: a
/// node configured through the policy engine behaves byte-identically to
/// one configured by the historical constants.
TEST(PolicyText, BaselineEqualsPlatformDefaults) {
  const PolicySet& base = baseline();
  const wdg::WatchdogConfig defaults;
  EXPECT_EQ(base.detection.watchdog.check_period, defaults.check_period);
  EXPECT_EQ(base.detection.watchdog.aliveness_threshold,
            defaults.aliveness_threshold);
  EXPECT_EQ(base.detection.watchdog.deadline_threshold,
            defaults.deadline_threshold);
  EXPECT_EQ(base.detection.watchdog.check_rule_threshold,
            defaults.check_rule_threshold);
  for (std::size_t i = 0; i < wdg::kErrorTypeCount; ++i) {
    EXPECT_EQ(base.detection.watchdog.severities[i], defaults.severities[i])
        << "severity of " << wdg::to_string(static_cast<wdg::ErrorType>(i));
  }
  const fmf::FmfConfig fmf_defaults;
  EXPECT_EQ(base.escalation.fmf.max_ecu_resets, fmf_defaults.max_ecu_resets);
  EXPECT_EQ(base.escalation.fmf.storm_reset_limit,
            fmf_defaults.storm_reset_limit);
  EXPECT_EQ(base.escalation.fmf.storm_window, fmf_defaults.storm_window);
  EXPECT_EQ(base.detection.hbm_scale, 1.0);
  EXPECT_EQ(base.detection.deadline_scale, 1.0);
  EXPECT_EQ(base.detection.aliveness_tolerance, 0u);
  EXPECT_EQ(base.detection.arrival_tolerance, 0u);
  EXPECT_TRUE(base.checks.empty());
}

TEST(PolicyText, VersionHashIdentifiesContent) {
  PolicySet a;
  PolicySet b;
  EXPECT_EQ(version_hash(a), version_hash(b));
  b.detection.watchdog.aliveness_threshold += 1;
  EXPECT_NE(version_hash(a), version_hash(b));
  EXPECT_LT(version_hash24(a), 1u << 24);
  EXPECT_LT(version_hash24(b), 1u << 24);
  EXPECT_NE(version_hash24(a), version_hash24(b));
}

// --- compiler diagnostics ----------------------------------------------------

TEST(PolicyCompiler, UnknownKeyIsALineNumberedError) {
  const CompileResult result =
      compile_policy("[detection]\nbogus_knob = 1\n");
  ASSERT_FALSE(result.ok());
  ASSERT_EQ(result.diagnostics.size(), 1u);
  EXPECT_EQ(result.diagnostics[0].line, 2u);
  EXPECT_NE(result.diagnostics[0].message.find("unknown key `bogus_knob`"),
            std::string::npos);
}

TEST(PolicyCompiler, UnknownSectionIsRejectedAndItsKeysSwallowed) {
  const CompileResult result =
      compile_policy("[preferences]\ncolor = blue\n");
  ASSERT_FALSE(result.ok());
  ASSERT_EQ(result.diagnostics.size(), 1u);
  EXPECT_EQ(result.diagnostics[0].line, 1u);
  EXPECT_NE(result.diagnostics[0].message.find("unknown section"),
            std::string::npos);
}

TEST(PolicyCompiler, OutOfRangeThresholdIsRejected) {
  const CompileResult result =
      compile_policy("[detection]\naliveness_threshold = 5000\n");
  ASSERT_FALSE(result.ok());
  ASSERT_EQ(result.diagnostics.size(), 1u);
  EXPECT_EQ(result.diagnostics[0].line, 2u);
  EXPECT_NE(result.diagnostics[0].message.find("out of range"),
            std::string::npos);
}

TEST(PolicyCompiler, DuplicateKeyIsRejected) {
  const CompileResult result =
      compile_policy("[policy]\nid = a\nid = b\n");
  ASSERT_FALSE(result.ok());
  ASSERT_EQ(result.diagnostics.size(), 1u);
  EXPECT_EQ(result.diagnostics[0].line, 3u);
  EXPECT_NE(result.diagnostics[0].message.find("duplicate key"),
            std::string::npos);
}

TEST(PolicyCompiler, InvertedThermalLadderIsAConflict) {
  const CompileResult result = compile_policy(
      "[thermal]\nwarn_c = 120\nderate_c = 100\nshutdown_c = 90\n");
  ASSERT_FALSE(result.ok());
  ASSERT_EQ(result.diagnostics.size(), 1u);
  // Anchored to the first offending key of the ladder.
  EXPECT_EQ(result.diagnostics[0].line, 2u);
  EXPECT_NE(result.diagnostics[0].message.find("conflicting thermal ladder"),
            std::string::npos);
}

TEST(PolicyCompiler, StormLimitWithoutWindowIsAConflict) {
  const CompileResult result = compile_policy(
      "[escalation]\nstorm_reset_limit = 3\nstorm_window_ms = 0\n");
  ASSERT_FALSE(result.ok());
  ASSERT_EQ(result.diagnostics.size(), 1u);
  EXPECT_EQ(result.diagnostics[0].line, 2u);
  EXPECT_NE(
      result.diagnostics[0].message.find("conflicting escalation rules"),
      std::string::npos);
}

TEST(PolicyCompiler, DerateRacingTreatmentIsAConflict) {
  const CompileResult result = compile_policy(
      "[detection]\nenvironment_threshold = 5\n"
      "[thermal]\nsensor_invalid_derate_cycles = 2\n");
  ASSERT_FALSE(result.ok());
  ASSERT_EQ(result.diagnostics.size(), 1u);
  EXPECT_EQ(result.diagnostics[0].line, 4u);
  EXPECT_NE(result.diagnostics[0].message.find(
                "sensor_invalid_derate_cycles"),
            std::string::npos);
}

TEST(PolicyCompiler, DuplicateCheckNameIsAConflict) {
  const CompileResult result = compile_policy(
      "[check \"x\"]\nsignal = a\n[check \"x\"]\nsignal = b\n");
  ASSERT_FALSE(result.ok());
  ASSERT_EQ(result.diagnostics.size(), 1u);
  EXPECT_EQ(result.diagnostics[0].line, 3u);
  EXPECT_NE(result.diagnostics[0].message.find("duplicate name \"x\""),
            std::string::npos);
}

TEST(PolicyCompiler, CheckWithoutSignalOrWithEmptyBandIsRejected) {
  const CompileResult no_signal = compile_policy("[check \"c\"]\nmin = 0\n");
  ASSERT_FALSE(no_signal.ok());
  EXPECT_NE(no_signal.diagnostics[0].message.find("has no `signal`"),
            std::string::npos);

  const CompileResult empty_band =
      compile_policy("[check \"c\"]\nsignal = s\nmin = 5\nmax = 1\n");
  ASSERT_FALSE(empty_band.ok());
  EXPECT_NE(empty_band.diagnostics[0].message.find("empty band"),
            std::string::npos);
}

/// One pass reports every finding, and any finding suppresses the policy.
TEST(PolicyCompiler, CollectsAllDiagnosticsInOnePass) {
  const CompileResult result = compile_policy(
      "[detection]\nbogus = 1\naliveness_threshold = 9999\n");
  ASSERT_FALSE(result.ok());
  ASSERT_EQ(result.diagnostics.size(), 2u);
  EXPECT_EQ(result.diagnostics[0].line, 2u);
  EXPECT_EQ(result.diagnostics[1].line, 3u);
}

// --- catalog -----------------------------------------------------------------

TEST(PolicyCatalog, GenerateIsDeterministicUniqueAndCompilable) {
  const PolicyCatalog a(42);
  const PolicyCatalog b(42);
  const auto policies_a = a.generate(150);
  const auto policies_b = b.generate(150);
  ASSERT_EQ(policies_a.size(), 150u);
  ASSERT_EQ(policies_b.size(), 150u);
  EXPECT_EQ(policies_a.front().id, "baseline");

  std::set<std::string> ids;
  for (std::size_t i = 0; i < policies_a.size(); ++i) {
    EXPECT_EQ(to_text(policies_a[i]), to_text(policies_b[i]))
        << "variant " << i << " not deterministic";
    EXPECT_TRUE(ids.insert(policies_a[i].id).second)
        << "duplicate id " << policies_a[i].id;
    const CompileResult compiled = compile_policy(to_text(policies_a[i]));
    EXPECT_TRUE(compiled.ok())
        << policies_a[i].id << ":\n" << compiled.format();
  }
}

TEST(PolicyCatalog, SeedChangesThePerturbations) {
  const auto grid_size = PolicyCatalog::grid().size();
  const std::size_t count = grid_size + 10;
  const auto a = PolicyCatalog(1).generate(count);
  const auto b = PolicyCatalog(2).generate(count);
  bool any_difference = false;
  for (std::size_t i = grid_size + 1; i < count; ++i) {
    any_difference = any_difference || to_text(a[i]) != to_text(b[i]);
  }
  EXPECT_TRUE(any_difference);
}

// --- check supervision unit --------------------------------------------------

std::shared_ptr<const PolicySet> check_policy(double min, double max,
                                              double fallback) {
  auto policy = std::make_shared<PolicySet>();
  policy->id = "check_test";
  CheckRule rule;
  rule.name = "band";
  rule.signal = "test.signal";
  rule.min = min;
  rule.max = max;
  rule.fallback = fallback;
  rule.period_cycles = 1;
  rule.deadline = Duration::millis(5);
  policy->checks.push_back(rule);
  return policy;
}

TEST(CheckSupervision, OutOfBandSignalReportsCheckRuleError) {
  sim::Engine engine;
  validator::CentralNodeConfig config;
  validator::apply_policy(config, check_policy(0.0, 10.0, 5.0));
  validator::CentralNode node(engine, config);
  ASSERT_NE(node.attach_check_supervision(), nullptr);

  std::uint64_t check_errors = 0;
  std::string first_detail;
  node.watchdog().add_error_listener([&](const wdg::ErrorReport& report) {
    if (report.type != wdg::ErrorType::kCheckRule) return;
    if (check_errors++ == 0) first_detail = report.detail;
  });

  node.start();
  // In band (fallback) first: no failures.
  engine.run_until(SimTime(500'000));
  EXPECT_EQ(node.check_supervision()->failures(), 0u);
  EXPECT_EQ(check_errors, 0u);

  // Drive the signal out of band; the periodic evaluation must fail and
  // the TSI must escalate it into a reported kCheckRule error.
  node.signals().publish("test.signal", 50.0, engine.now());
  engine.run_until(SimTime(2'000'000));
  EXPECT_GT(node.check_supervision()->failures(), 0u);
  EXPECT_GT(check_errors, 0u);
  EXPECT_GT(node.check_supervision()->evaluations(), 0u);
  EXPECT_EQ(first_detail, "check 'band': test.signal=50 outside [0, 10]");

  // The failure lands in fault memory like any other watchdog error.
  ASSERT_NE(node.dtc_store(), nullptr);
  bool check_dtc = false;
  for (const auto& dtc : node.dtc_store()->entries()) {
    check_dtc = check_dtc || dtc.key.type == wdg::ErrorType::kCheckRule;
  }
  EXPECT_TRUE(check_dtc);
}

TEST(CheckSupervision, StalledEvaluationTransgressesItsDeadline) {
  sim::Engine engine;
  validator::CentralNodeConfig config;
  validator::apply_policy(config, check_policy(0.0, 10.0, 5.0));
  validator::CentralNode node(engine, config);
  ASSERT_NE(node.attach_check_supervision(), nullptr);

  std::uint64_t deadline_errors = 0;
  node.watchdog().add_error_listener([&](const wdg::ErrorReport& report) {
    if (report.type == wdg::ErrorType::kDeadline) ++deadline_errors;
  });

  node.start();
  engine.schedule_at(SimTime(500'000), [&] {
    node.check_supervision()->set_stalled("band", true);
  });
  engine.run_until(SimTime(2'000'000));

  ASSERT_NE(node.process_supervision(), nullptr);
  EXPECT_GT(node.process_supervision()->transgressions(), 0u);
  EXPECT_GT(deadline_errors, 0u);
}

// --- policy identity over diagnostics ----------------------------------------

std::shared_ptr<PolicySet> fleet_policy() {
  auto policy = std::make_shared<PolicySet>();
  policy->id = "fleet_v2";
  policy->version = 2;
  policy->detection.watchdog.aliveness_threshold = 4;
  return policy;
}

TEST(PolicyDiag, MatchingFleetPolicyPassesTheCrossCheck) {
  sim::Engine engine;
  bus::CanBus can(engine);
  auto policy = fleet_policy();
  const std::uint32_t expected = version_hash24(*policy);

  validator::CentralNodeConfig config;
  validator::apply_policy(config, policy);
  validator::CentralNode node(engine, config);
  node.attach_diag(can);
  node.start();

  diag::HealthMonitorConfig match_config;
  match_config.expected_policy_hash = expected;
  diag::HealthMonitorMaster master(engine, can, match_config);
  master.register_ecu("central", diag::DiagTesterConfig{});
  master.start();
  engine.run_until(SimTime(450'000));

  const diag::FleetEntry* entry = master.entry("central");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->state, diag::FleetEntry::State::kAlive);
  EXPECT_EQ(entry->policy_hash, expected);
  EXPECT_TRUE(entry->policy_ok);
  EXPECT_EQ(entry->policy_mismatches, 0u);
  EXPECT_EQ(master.policy_mismatch_count(), 0u);
}

TEST(PolicyDiag, DivergentFleetPolicyIsFlaggedByTheHealthMaster) {
  sim::Engine engine;
  bus::CanBus can(engine);
  auto policy = fleet_policy();
  const std::uint32_t actual = version_hash24(*policy);

  validator::CentralNodeConfig config;
  validator::apply_policy(config, policy);
  validator::CentralNode node(engine, config);
  node.attach_diag(can);
  node.start();

  diag::HealthMonitorConfig mismatch_config;
  mismatch_config.expected_policy_hash = actual ^ 1u;
  diag::HealthMonitorMaster master(engine, can, mismatch_config);
  master.register_ecu("central", diag::DiagTesterConfig{});
  master.start();
  engine.run_until(SimTime(450'000));

  const diag::FleetEntry* flagged = master.entry("central");
  ASSERT_NE(flagged, nullptr);
  EXPECT_EQ(flagged->state, diag::FleetEntry::State::kAlive);
  EXPECT_EQ(flagged->policy_hash, actual);
  EXPECT_FALSE(flagged->policy_ok);
  EXPECT_GT(flagged->policy_mismatches, 0u);
  EXPECT_EQ(master.policy_mismatch_count(), 1u);
}

// --- rate-of-change predicate ------------------------------------------------

std::shared_ptr<const PolicySet> rate_policy(double rate_min, double rate_max) {
  auto policy = std::make_shared<PolicySet>();
  policy->id = "rate_test";
  CheckRule rule;
  rule.name = "slope";
  rule.signal = "test.signal";
  rule.min = -1.0e6;
  rule.max = 1.0e6;
  rule.period_cycles = 1;
  rule.rate_bounded = true;
  rule.rate_min_per_s = rate_min;
  rule.rate_max_per_s = rate_max;
  policy->checks.push_back(rule);
  return policy;
}

TEST(CheckSupervision, InBandSlopeSatisfiesTheRatePredicate) {
  sim::Engine engine;
  validator::CentralNodeConfig config;
  validator::apply_policy(config, rate_policy(-100.0, 100.0));
  validator::CentralNode node(engine, config);
  ASSERT_NE(node.attach_check_supervision(), nullptr);

  std::uint64_t check_errors = 0;
  node.watchdog().add_error_listener([&](const wdg::ErrorReport& report) {
    if (report.type == wdg::ErrorType::kCheckRule) ++check_errors;
  });

  // Ramp the signal at 50 units/s: well inside the +/-100/s band.
  double value = 0.0;
  std::function<void()> ramp = [&] {
    value += 0.5;  // +0.5 per 10 ms = 50/s
    node.signals().publish("test.signal", value, engine.now());
    engine.schedule_in(Duration::millis(10), ramp);
  };
  engine.schedule_in(Duration::millis(10), ramp);

  node.start();
  engine.run_until(SimTime(2'000'000));
  EXPECT_GT(node.check_supervision()->evaluations(), 0u);
  EXPECT_EQ(node.check_supervision()->failures(), 0u);
  EXPECT_EQ(check_errors, 0u);
}

TEST(CheckSupervision, RunawaySlopeFailsTheRatePredicate) {
  sim::Engine engine;
  validator::CentralNodeConfig config;
  validator::apply_policy(config, rate_policy(-100.0, 100.0));
  validator::CentralNode node(engine, config);
  ASSERT_NE(node.attach_check_supervision(), nullptr);

  std::uint64_t check_errors = 0;
  std::string first_detail;
  node.watchdog().add_error_listener([&](const wdg::ErrorReport& report) {
    if (report.type != wdg::ErrorType::kCheckRule) return;
    if (check_errors++ == 0) first_detail = report.detail;
  });

  // Ramp at 500 units/s from t=1s: every absolute sample stays inside
  // [min, max], so only the rate predicate can catch the runaway.
  double value = 0.0;
  std::function<void()> ramp = [&] {
    value += 5.0;  // +5 per 10 ms = 500/s
    node.signals().publish("test.signal", value, engine.now());
    engine.schedule_in(Duration::millis(10), ramp);
  };
  engine.schedule_at(SimTime(1'000'000), ramp);

  node.start();
  engine.run_until(SimTime(999'000));
  EXPECT_EQ(node.check_supervision()->failures(), 0u);
  engine.run_until(SimTime(3'000'000));
  EXPECT_GT(node.check_supervision()->failures(), 0u);
  EXPECT_GT(check_errors, 0u);
  EXPECT_EQ(first_detail,
            "check 'slope': test.signal rate 500/s outside [-100, 100]");
}

// --- malformed-bounds diagnostics --------------------------------------------

TEST(PolicyCompiler, EmptyCheckBandIsRejected) {
  const CompileResult result = compile_policy(
      "[check \"band\"]\nsignal = x\nmin = 10\nmax = 1\n");
  ASSERT_FALSE(result.ok());
  ASSERT_EQ(result.diagnostics.size(), 1u);
  EXPECT_NE(result.diagnostics[0].message.find("empty band"),
            std::string::npos);
}

TEST(PolicyCompiler, EmptyRateBandIsRejected) {
  const CompileResult result = compile_policy(
      "[check \"slope\"]\nsignal = x\nrate_min_per_s = 5\nrate_max_per_s = "
      "-5\n");
  ASSERT_FALSE(result.ok());
  ASSERT_EQ(result.diagnostics.size(), 1u);
  EXPECT_NE(result.diagnostics[0].message.find("empty rate band"),
            std::string::npos);
}

TEST(PolicyCompiler, RateBoundRoundTripsAndChangesTheHash) {
  PolicySet policy;
  policy.id = "rate_rt";
  CheckRule rule;
  rule.name = "slope";
  rule.signal = "test.signal";
  rule.rate_bounded = true;
  rule.rate_max_per_s = 2000.0;
  policy.checks.push_back(rule);

  const std::string text = to_text(policy);
  const CompileResult result = compile_policy(text);
  ASSERT_TRUE(result.ok()) << result.format();
  EXPECT_EQ(to_text(*result.policy), text);
  ASSERT_EQ(result.policy->checks.size(), 1u);
  EXPECT_TRUE(result.policy->checks[0].rate_bounded);
  EXPECT_EQ(result.policy->checks[0].rate_max_per_s, 2000.0);

  PolicySet unbounded = policy;
  unbounded.checks[0].rate_bounded = false;
  EXPECT_NE(version_hash(policy), version_hash(unbounded));
}

TEST(PolicyCompiler, SilenceGuardOnArmedModeIsRejected) {
  const CompileResult result = compile_policy(
      "[mode.sleep]\naliveness_armed = true\nsilent_max_arrivals = 2\n");
  ASSERT_FALSE(result.ok());
  ASSERT_EQ(result.diagnostics.size(), 1u);
  EXPECT_NE(result.diagnostics[0].message.find("silent_max_arrivals"),
            std::string::npos);
}

TEST(PolicyCompiler, AlivenessToleranceOnDisarmedModeIsRejected) {
  const CompileResult result = compile_policy(
      "[mode.sleep]\naliveness_armed = false\naliveness_tolerance = 1\n");
  ASSERT_FALSE(result.ok());
  ASSERT_EQ(result.diagnostics.size(), 1u);
  EXPECT_NE(result.diagnostics[0].message.find("aliveness_tolerance"),
            std::string::npos);
}

}  // namespace
}  // namespace easis::policy
