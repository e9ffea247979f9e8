// Shared-lifecycle tests of the supervised-ECU skeleton (NodePlatform):
// every node that derives from it starts once, blacks out for its reboot
// delay on a software reset, and funnels a commanded ECUReset through the
// FMF reset path. Each case runs on CentralNode and on RailMonNode.
#include <gtest/gtest.h>

#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "bus/can.hpp"
#include "diag/tester.hpp"
#include "sim/engine.hpp"
#include "validator/central_node.hpp"
#include "validator/railmon_node.hpp"

namespace easis::validator {
namespace {

using sim::Duration;
using sim::Engine;
using sim::SimTime;

template <class Node>
struct NodeTraits;
template <>
struct NodeTraits<CentralNode> {
  using Config = CentralNodeConfig;
  static constexpr const char* kName = "CentralNode";
};
template <>
struct NodeTraits<RailMonNode> {
  using Config = RailMonNodeConfig;
  static constexpr const char* kName = "RailMonNode";
};

template <class Node>
class NodeLifecycle : public ::testing::Test {};
using Nodes = ::testing::Types<CentralNode, RailMonNode>;
TYPED_TEST_SUITE(NodeLifecycle, Nodes);

TYPED_TEST(NodeLifecycle, SecondStartThrowsNamingTheNode) {
  Engine engine;
  TypeParam node(engine, typename NodeTraits<TypeParam>::Config{});
  node.start();
  try {
    node.start();
    FAIL() << "a running node accepted a second start()";
  } catch (const std::logic_error& error) {
    EXPECT_NE(std::string(error.what()).find(NodeTraits<TypeParam>::kName),
              std::string::npos)
        << error.what();
  }
}

TYPED_TEST(NodeLifecycle, DelayedResetBlacksTheNodeOutForTheRebootDelay) {
  Engine engine;
  typename NodeTraits<TypeParam>::Config config;
  config.reboot_delay = Duration::millis(50);
  TypeParam node(engine, config);
  bus::CanBus can(engine);
  diag::DiagServer& server = node.attach_diag(can);
  diag::DiagTester tester(engine, can, diag::DiagTesterConfig{});
  node.start();

  constexpr SimTime kReset(300'000);
  engine.schedule_at(kReset, [&] {
    fmf::ResetCause cause;
    cause.source = fmf::ResetSource::kEcuFaulty;
    cause.time = engine.now();
    cause.detail = "lifecycle test";
    node.fault_management()->request_reset(std::move(cause), engine.now());
  });
  std::optional<diag::Response> during{diag::Response{}};
  std::optional<diag::Response> after;
  engine.schedule_at(kReset + Duration::millis(10), [&] {
    EXPECT_TRUE(node.rebooting());
    EXPECT_FALSE(node.kernel().started());
    tester.tester_present(
        [&](const std::optional<diag::Response>& r) { during = r; });
  });
  engine.schedule_at(kReset + Duration::millis(49),
                     [&] { EXPECT_TRUE(node.rebooting()); });
  engine.schedule_at(kReset + Duration::millis(51), [&] {
    EXPECT_FALSE(node.rebooting());
    EXPECT_TRUE(node.kernel().started());
    tester.tester_present(
        [&](const std::optional<diag::Response>& r) { after = r; });
  });
  engine.run_until(kReset + Duration::millis(200));

  EXPECT_FALSE(during.has_value()) << "the dark node answered a request";
  EXPECT_EQ(server.requests_dropped_offline(), 1u);
  ASSERT_TRUE(after.has_value());
  EXPECT_TRUE(after->positive);
  EXPECT_EQ(node.resets_performed(), 1u);
  const fmf::NvmStore::LoadResult loaded = node.nvm()->load();
  ASSERT_TRUE(loaded.image.has_value());
  EXPECT_EQ(loaded.image->reset_count, 1u);
  ASSERT_FALSE(loaded.image->reset_history.empty());
  EXPECT_EQ(loaded.image->reset_history.back().source,
            fmf::ResetSource::kEcuFaulty);
  EXPECT_EQ(loaded.image->reset_history.back().detail, "lifecycle test");
}

TYPED_TEST(NodeLifecycle, CommandedEcuResetIsADiagnosticRequestReset) {
  Engine engine;
  TypeParam node(engine, typename NodeTraits<TypeParam>::Config{});
  bus::CanBus can(engine);
  node.attach_diag(can);
  diag::DiagTester tester(engine, can, diag::DiagTesterConfig{});
  node.start();

  std::optional<diag::Response> response;
  engine.schedule_at(SimTime(300'000), [&] {
    // ECUReset is privileged: TesterPresent opens the session first.
    tester.tester_present([](const std::optional<diag::Response>&) {});
    tester.ecu_reset(
        [&](const std::optional<diag::Response>& r) { response = r; });
  });
  engine.run_until(SimTime(500'000));

  ASSERT_TRUE(response.has_value());
  EXPECT_TRUE(response->positive);
  EXPECT_EQ(node.resets_performed(), 1u);
  const fmf::FaultManagementFramework* fmf = node.fault_management();
  ASSERT_TRUE(fmf->last_reset_cause().has_value());
  EXPECT_EQ(fmf->last_reset_cause()->source,
            fmf::ResetSource::kDiagnosticRequest);
  EXPECT_TRUE(node.kernel().started());
}

}  // namespace
}  // namespace easis::validator
