// The class x detector campaign scenarios: each family's fault-class table
// rejects an unknown class by name, names every class once, and a run
// reduces to exactly the family's declared detectors, without logging.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "campaign_scenarios.hpp"
#include "util/logging.hpp"

namespace easis::bench {
namespace {

struct Family {
  const char* name;
  const std::vector<std::string>& (*classes)();
  std::function<harness::RunResult(const std::string&)> run;
  const std::vector<std::string>& detectors;
};

const std::vector<Family>& families() {
  static const std::vector<Family> kFamilies = {
      {"network", network_fault_classes,
       [](const std::string& c) { return run_network_fault(c, 1); },
       kNetworkDetectors},
      {"diag", diag_fault_classes,
       [](const std::string& c) { return run_diag_readout(c, 1); },
       kDiagDetectors},
      {"resource", resource_fault_classes,
       [](const std::string& c) { return run_resource_fault(c, 1); },
       kResourceDetectors},
      {"environment", environment_fault_classes,
       [](const std::string& c) { return run_environment_fault(c, 1); },
       kEnvironmentDetectors},
      {"mode", mode_fault_classes,
       [](const std::string& c) { return run_mode_fault(c, 1); },
       kModeDetectors},
  };
  return kFamilies;
}

TEST(CampaignScenarios, UnknownClassThrowsNamingFamilyAndClass) {
  for (const Family& family : families()) {
    try {
      (void)family.run("no_such_class");
      ADD_FAILURE() << family.name << ": unknown class did not throw";
    } catch (const std::invalid_argument& error) {
      EXPECT_EQ(std::string(error.what()),
                std::string("unknown ") + family.name +
                    " fault class: no_such_class");
    }
  }
}

TEST(CampaignScenarios, ClassNamesAreUnique) {
  for (const Family& family : families()) {
    const std::vector<std::string>& classes = family.classes();
    EXPECT_FALSE(classes.empty()) << family.name;
    EXPECT_EQ(std::set<std::string>(classes.begin(), classes.end()).size(),
              classes.size())
        << family.name;
  }
}

TEST(CampaignScenarios, RunReducesToTheDeclaredDetectors) {
  for (const Family& family : families()) {
    const harness::RunResult result = family.run(family.classes().front());
    std::vector<std::string> declared = family.detectors;
    std::sort(declared.begin(), declared.end());
    EXPECT_EQ(result.coverage.detector_names(), declared) << family.name;
    EXPECT_EQ(result.coverage.fault_classes(),
              std::vector<std::string>{family.classes().front()})
        << family.name;
  }
}

/// The WARN and ERROR lines logged while one run of each fault class of
/// the named families executes.
std::vector<std::string> warnings_running(
    const std::vector<std::string_view>& family_names) {
  util::Logger& logger = util::Logger::instance();
  std::vector<std::string> lines;
  const util::Logger::Sink old_sink = logger.set_sink(
      [&lines](util::LogLevel level, std::string_view component,
               std::string_view message) {
        if (level >= util::LogLevel::kWarn) {
          lines.push_back(std::string(component) + ": " +
                          std::string(message));
        }
      });
  const util::LogLevel old_level = logger.level();
  logger.set_level(util::LogLevel::kWarn);
  for (const Family& family : families()) {
    if (std::find(family_names.begin(), family_names.end(), family.name) ==
        family_names.end()) {
      continue;
    }
    for (const std::string& fault_class : family.classes()) {
      (void)family.run(fault_class);
    }
  }
  logger.set_level(old_level);
  logger.set_sink(old_sink);
  return lines;
}

// Every in-run fact is a telemetry event or a counter, so a run logs no
// WARN or ERROR line at the default level. Mode and environment are the
// families with the most FMF treatments per run.
TEST(CampaignScenarios, ModeAndEnvironmentRunsDoNotLog) {
  const std::vector<std::string> lines =
      warnings_running({"mode", "environment"});
  EXPECT_TRUE(lines.empty()) << lines.size() << " lines, the first: "
                             << (lines.empty() ? "" : lines.front());
}

// Every network run's gateway drops frames it has no route for; it counts
// them per route key instead of logging.
TEST(CampaignScenarios, NetworkRunsDoNotLog) {
  const std::vector<std::string> lines = warnings_running({"network"});
  EXPECT_TRUE(lines.empty()) << lines.size() << " lines, the first: "
                             << (lines.empty() ? "" : lines.front());
}

}  // namespace
}  // namespace easis::bench
