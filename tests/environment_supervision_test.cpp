// Unit tests for the environmental-supervision family: the first-order
// thermal model (including the sensor dither that keeps a live sensor
// distinguishable from a settled die), the Environment Supervision Unit's
// graceful-derating ladder and filesystem rules, the NvmStore wear model,
// the FMF's evict-by-priority degradation on flash-full, the
// supervised-process client API, and the environment/transgression
// ReadDataByIdentifier round trip against injected values.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "bus/can.hpp"
#include "diag/protocol.hpp"
#include "diag/server.hpp"
#include "diag/tester.hpp"
#include "fmf/dtc.hpp"
#include "fmf/fmf.hpp"
#include "fmf/nvm.hpp"
#include "os/kernel.hpp"
#include "rte/rte.hpp"
#include "rte/signal_bus.hpp"
#include "sim/engine.hpp"
#include "sim/thermal.hpp"
#include "telemetry/event_bus.hpp"
#include "util/random.hpp"
#include "wdg/env_monitor.hpp"
#include "wdg/process_supervisor.hpp"
#include "wdg/watchdog.hpp"

namespace easis {
namespace {

using sim::Duration;
using sim::SimTime;

// --- thermal model -----------------------------------------------------------

TEST(ThermalModelTest, JunctionRelaxesTowardAmbientPlusLoadRise) {
  sim::ThermalParams params;
  params.ambient_c = 25.0;
  params.idle_rise_c = 8.0;
  params.self_heating_c = 25.0;
  params.time_constant = Duration::millis(100);
  sim::ThermalModel model(params);
  EXPECT_DOUBLE_EQ(model.junction_c(), 33.0);  // starts settled at idle

  // Many time constants at full load: the junction reaches the loaded
  // target 25 + 8 + 25.
  for (int i = 0; i < 200; ++i) model.step(Duration::millis(10), 1.0);
  EXPECT_NEAR(model.junction_c(), 58.0, 0.01);

  // An ambient ramp pulls the target up with it.
  model.set_ambient(100.0);
  for (int i = 0; i < 200; ++i) model.step(Duration::millis(10), 0.0);
  EXPECT_NEAR(model.junction_c(), 108.0, 0.01);
}

TEST(ThermalModelTest, DitherStaysVisibleUnderOneToOneAndTwoToOneSampling) {
  sim::ThermalParams params;
  params.sensor_dither_c = 0.1;
  sim::ThermalModel model(params);
  // Thermal equilibrium (no ambient change, no load): only the dither
  // moves the reading. A supervisor sampling every model step or every
  // other step must still see consecutive readings differ — the stuck
  // rule's epsilon is well below the dither amplitude.
  std::vector<double> every_step;
  std::vector<double> every_other_step;
  for (int i = 0; i < 12; ++i) {
    model.step(Duration::millis(5));
    every_step.push_back(model.sensor_c());
    if (i % 2 == 1) every_other_step.push_back(model.sensor_c());
  }
  for (std::size_t i = 1; i < every_step.size(); ++i) {
    EXPECT_GT(std::abs(every_step[i] - every_step[i - 1]), 0.05)
        << "1:1 sampling aliased at step " << i;
  }
  for (std::size_t i = 1; i < every_other_step.size(); ++i) {
    EXPECT_GT(std::abs(every_other_step[i] - every_other_step[i - 1]), 0.05)
        << "2:1 sampling aliased at sample " << i;
  }
}

TEST(ThermalModelTest, StuckSensorFreezesReadingWhileJunctionMoves) {
  sim::ThermalModel model;
  model.step(Duration::millis(5));
  model.set_sensor_stuck(true);
  const double frozen = model.sensor_c();
  model.set_ambient(120.0);
  // Several of the default 2 s time constants, so the junction is near
  // its new 128 degree target while the sensor still shows the old world.
  for (int i = 0; i < 1'000; ++i) model.step(Duration::millis(10));
  EXPECT_DOUBLE_EQ(model.sensor_c(), frozen);  // the fault
  EXPECT_GT(model.junction_c(), 100.0);        // the physics underneath
  model.set_sensor_stuck(false);
  EXPECT_GT(model.sensor_c(), 100.0);  // reading rejoins the junction

  model.set_sensor_offset(60.0);
  EXPECT_NEAR(model.sensor_c(), model.junction_c() + 60.0, 0.11);
}

// --- Environment Supervision Unit: thermal ladder ----------------------------

wdg::WatchdogConfig esu_config() {
  wdg::WatchdogConfig config;
  config.check_period = Duration::millis(10);
  config.environment_threshold = 3;
  return config;
}

class EsuTest : public ::testing::Test {
 protected:
  rte::SignalBus bus;
  wdg::SoftwareWatchdog wd{esu_config()};
  wdg::EnvironmentSupervisionUnit esu{wd, bus};
  std::vector<wdg::ErrorReport> errors;
  double temp_c = 25.0;
  int derate_entered = 0;
  int derate_exited = 0;
  int shutdowns = 0;

  void SetUp() override {
    wd.add_error_listener(
        [this](const wdg::ErrorReport& report) { errors.push_back(report); });
    esu.set_derate_hooks([this](SimTime) { ++derate_entered; },
                         [this](SimTime) { ++derate_exited; });
    esu.set_shutdown_hook([this](SimTime) { ++shutdowns; });
  }

  wdg::ThermalLimits limits() {
    wdg::ThermalLimits lim;
    lim.warn_c = 60.0;
    lim.derate_c = 80.0;
    lim.shutdown_c = 105.0;
    lim.hysteresis_c = 5.0;
    lim.stuck_cycles = 3;
    lim.sensor_invalid_derate_cycles = 2;
    return lim;
  }

  void add_channel(wdg::ThermalLimits lim) {
    wdg::ThermalChannel channel;
    channel.id = RunnableId(2100);
    channel.task = TaskId(1);
    channel.application = ApplicationId(0);
    channel.name = "ecu";
    channel.limits = lim;
    channel.probe = [this] { return temp_c; };
    esu.add_thermal(channel);
  }

  void cycles(int n, int start = 0) {
    for (int i = 0; i < n; ++i) {
      esu.cycle(SimTime((start + i) * 10'000));
    }
  }
};

TEST_F(EsuTest, LadderStepsOneStagePerCycleAndShutdownLatches) {
  add_channel(limits());
  // A step change far above the shutdown boundary still walks the ladder
  // one stage per cycle: warn -> derate -> shutdown, never a jump.
  temp_c = 120.0;
  cycles(1);
  EXPECT_EQ(esu.stage(), wdg::ThermalStage::kWarn);
  EXPECT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].type, wdg::ErrorType::kThermal);
  EXPECT_EQ(derate_entered, 0);
  cycles(1, 1);
  EXPECT_EQ(esu.stage(), wdg::ThermalStage::kDerate);
  EXPECT_EQ(derate_entered, 1);
  cycles(1, 2);
  EXPECT_EQ(esu.stage(), wdg::ThermalStage::kShutdown);
  EXPECT_EQ(shutdowns, 1);
  EXPECT_EQ(errors.size(), 3u);  // each transition reported exactly once
  EXPECT_EQ(esu.stage_trace(), "normal>warn>derate>shutdown");
  // Shutdown is the entry into the persistent safe state: a cooled-down
  // die neither un-parks the node nor reports again.
  temp_c = 20.0;
  cycles(5, 3);
  EXPECT_EQ(esu.stage(), wdg::ThermalStage::kShutdown);
  EXPECT_EQ(errors.size(), 3u);
  EXPECT_EQ(shutdowns, 1);
  EXPECT_EQ(derate_exited, 0);
}

TEST_F(EsuTest, SnapshotTextIsExact) {
  add_channel(limits());
  wdg::FilesystemChannel channel;
  channel.id = RunnableId(2101);
  channel.task = TaskId(1);
  channel.application = ApplicationId(0);
  channel.name = "faultmem";
  channel.fill_probe = [] { return 0.4275; };
  channel.wear_probe = [] { return 0.125; };
  channel.write_error_probe = [] { return std::uint64_t{3}; };
  channel.overflow_probe = [] { return std::uint64_t{0}; };
  esu.add_filesystem(channel);
  temp_c = 61.23456789;
  cycles(2);
  EXPECT_EQ(esu.format_snapshot(),
            "environment snapshot (trace=normal>warn)\n"
            "  thermal ecu stage=warn temp_c=61.2346 invalid=0 reports=1\n"
            "  filesystem faultmem fill_pct=43 wear_pct=13 write_errors=3 "
            "reports=1\n");
}

TEST_F(EsuTest, HysteresisGatesDownwardAndRecoveryIsSilent) {
  add_channel(limits());
  temp_c = 85.0;
  cycles(2);  // normal -> warn -> derate
  ASSERT_EQ(esu.stage(), wdg::ThermalStage::kDerate);
  EXPECT_EQ(errors.size(), 2u);
  EXPECT_EQ(derate_entered, 1);
  // 78 is below derate_c but inside the 5 degree hysteresis band: stay.
  temp_c = 78.0;
  cycles(2, 2);
  EXPECT_EQ(esu.stage(), wdg::ThermalStage::kDerate);
  EXPECT_EQ(derate_exited, 0);
  // Clear of the band: drop to warn, un-park, but no report (recovery is
  // silent — the warn DTC ages out through the TSI's healing).
  temp_c = 74.0;
  cycles(1, 4);
  EXPECT_EQ(esu.stage(), wdg::ThermalStage::kWarn);
  EXPECT_EQ(derate_exited, 1);
  temp_c = 56.0;  // still inside warn hysteresis (55)
  cycles(1, 5);
  EXPECT_EQ(esu.stage(), wdg::ThermalStage::kWarn);
  temp_c = 54.0;
  cycles(1, 6);
  EXPECT_EQ(esu.stage(), wdg::ThermalStage::kNormal);
  EXPECT_EQ(errors.size(), 2u);
  EXPECT_EQ(esu.stage_trace(), "normal>warn>derate>warn>normal");
}

TEST_F(EsuTest, StuckSensorReportsPerCycleThenPrecautionaryDerate) {
  add_channel(limits());
  temp_c = 40.0;  // plausible and cool — only the frozen value is wrong
  // Cycle 1 primes last_c; cycles 2-4 count frozen cycles up to the
  // stuck threshold of 3.
  cycles(4);
  ASSERT_TRUE(esu.sensor_invalid());
  EXPECT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].detail.find("stuck"), std::string::npos);
  EXPECT_EQ(esu.stage(), wdg::ThermalStage::kNormal);
  // Second invalid cycle: per-cycle report, then the precautionary derate
  // engages (an ECU that cannot trust its sensor assumes it is hot).
  cycles(1, 4);
  EXPECT_EQ(esu.stage(), wdg::ThermalStage::kDerate);
  EXPECT_EQ(derate_entered, 1);
  EXPECT_EQ(errors.size(), 3u);  // stuck report + derate transition
  // Once treated, the stream stops: more frozen cycles add nothing.
  cycles(4, 5);
  EXPECT_EQ(errors.size(), 3u);
  EXPECT_EQ(esu.stage(), wdg::ThermalStage::kDerate);
}

TEST_F(EsuTest, ImplausibleReadingNeverDrivesTheLadder) {
  add_channel(limits());
  temp_c = 200.0;  // far outside the plausibility band AND above shutdown_c
  cycles(1);
  EXPECT_TRUE(esu.sensor_invalid());
  EXPECT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].detail.find("implausible"), std::string::npos);
  EXPECT_EQ(esu.stage(), wdg::ThermalStage::kNormal);
  cycles(4, 1);
  // The invalid value reached the precautionary derate, but never the
  // shutdown stage its face value would command: garbage must not pull
  // the reset trigger.
  EXPECT_EQ(esu.stage(), wdg::ThermalStage::kDerate);
  EXPECT_EQ(shutdowns, 0);
  // A recovered sensor clears the invalid state; the cool reading then
  // steps the ladder down and un-parks.
  temp_c = 40.0;
  cycles(1, 5);
  temp_c = 40.2;
  cycles(1, 6);
  EXPECT_FALSE(esu.sensor_invalid());
  EXPECT_EQ(esu.stage(), wdg::ThermalStage::kNormal);
  EXPECT_EQ(derate_exited, 1);
  EXPECT_EQ(esu.stage_trace(), "normal>derate>normal");
}

TEST_F(EsuTest, DitheringSensorAtEquilibriumStaysQuiet) {
  wdg::ThermalLimits lim = limits();
  lim.stuck_cycles = 3;
  add_channel(lim);
  // A healthy sensor at a safe temperature: the dither keeps consecutive
  // readings apart, so neither the stuck rule nor the ladder fires.
  for (int i = 0; i < 30; ++i) {
    temp_c = 40.0 + 0.1 * static_cast<double>(i % 3);
    esu.cycle(SimTime(i * 10'000));
  }
  EXPECT_TRUE(errors.empty());
  EXPECT_FALSE(esu.sensor_invalid());
  EXPECT_EQ(esu.stage(), wdg::ThermalStage::kNormal);
  EXPECT_EQ(esu.stage_trace(), "normal");
}

// --- Environment Supervision Unit: filesystem rules --------------------------

class EsuFilesystemTest : public ::testing::Test {
 protected:
  rte::SignalBus bus;
  wdg::SoftwareWatchdog wd{esu_config()};
  wdg::EnvironmentSupervisionUnit esu{wd, bus};
  std::vector<wdg::ErrorReport> errors;
  double fill = 0.0;
  double wear = 0.0;
  std::uint64_t write_errors = 0;
  std::uint64_t overflows = 0;

  void SetUp() override {
    wd.add_error_listener(
        [this](const wdg::ErrorReport& report) { errors.push_back(report); });
    wdg::FilesystemChannel channel;
    channel.id = RunnableId(2101);
    channel.task = TaskId(1);
    channel.application = ApplicationId(0);
    channel.name = "faultmem";
    channel.limits.fill_watermark = 0.8;
    channel.limits.window_cycles = 3;
    channel.limits.wear_watermark = 0.8;
    channel.fill_probe = [this] { return fill; };
    channel.wear_probe = [this] { return wear; };
    channel.write_error_probe = [this] { return write_errors; };
    channel.overflow_probe = [this] { return overflows; };
    esu.add_filesystem(channel);
  }

  void cycles(int n, int start = 0) {
    for (int i = 0; i < n; ++i) {
      esu.cycle(SimTime((start + i) * 10'000));
    }
  }
};

TEST_F(EsuFilesystemTest, FillWatermarkReportsAfterWindowAndRearms) {
  fill = 0.9;
  cycles(2);
  EXPECT_TRUE(errors.empty());  // inside the transgression window
  cycles(1, 2);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].type, wdg::ErrorType::kFilesystem);
  EXPECT_NE(errors[0].detail.find("fill"), std::string::npos);
  EXPECT_EQ(esu.flash_fill_pct(), 90u);
  // Sustained transgression re-reports every cycle (TSI threshold food);
  // dropping below the watermark re-arms the window.
  cycles(1, 3);
  EXPECT_EQ(errors.size(), 2u);
  fill = 0.5;
  cycles(3, 4);
  EXPECT_EQ(errors.size(), 2u);
  fill = 0.85;
  cycles(2, 7);
  EXPECT_EQ(errors.size(), 2u);  // window re-armed: two cycles are silent
  cycles(1, 9);
  EXPECT_EQ(errors.size(), 3u);
}

TEST_F(EsuFilesystemTest, WriteErrorDeltaReportsImmediately) {
  cycles(2);
  EXPECT_TRUE(errors.empty());
  write_errors = 2;  // two failed commits since the last cycle
  cycles(1, 2);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].type, wdg::ErrorType::kFilesystem);
  EXPECT_NE(errors[0].detail.find("write errors"), std::string::npos);
  EXPECT_NE(errors[0].detail.find("failed=2"), std::string::npos);
  // No new failures: the cumulative counter holding steady is silence.
  cycles(3, 3);
  EXPECT_EQ(errors.size(), 1u);
}

TEST_F(EsuFilesystemTest, OverflowDeltaReportsImmediately) {
  overflows = 1;
  cycles(1);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].detail.find("overflow"), std::string::npos);
  cycles(2, 1);
  EXPECT_EQ(errors.size(), 1u);
  // A write-error delta outranks an overflow delta in the same cycle (one
  // report per channel per cycle).
  write_errors = 1;
  overflows = 2;
  cycles(1, 3);
  ASSERT_EQ(errors.size(), 2u);
  EXPECT_NE(errors[1].detail.find("write errors"), std::string::npos);
}

TEST_F(EsuFilesystemTest, WearWatermarkReportsPerCycle) {
  wear = 0.9;
  cycles(3);
  // Wear never heals, so the rule has no window and keeps reporting.
  ASSERT_EQ(errors.size(), 3u);
  EXPECT_NE(errors[0].detail.find("wear"), std::string::npos);
  EXPECT_EQ(esu.flash_wear_pct(), 90u);
  wear = 0.5;
  cycles(2, 3);
  EXPECT_EQ(errors.size(), 3u);
}

// --- NvmStore wear model -----------------------------------------------------

fmf::NvmImage small_image(std::uint32_t reset_count = 1) {
  fmf::NvmImage image;
  image.reset_count = reset_count;
  return image;
}

TEST(NvmWearTest, FillLevelTracksCommittedImage) {
  fmf::NvmStore store(1024);
  EXPECT_DOUBLE_EQ(store.fill_level(), 0.0);
  ASSERT_TRUE(store.commit(small_image()));
  const double empty_fill = store.fill_level();
  EXPECT_GT(empty_fill, 0.0);

  fmf::NvmImage image = small_image();
  fmf::ResetCause cause;
  cause.source = fmf::ResetSource::kEcuFaulty;
  cause.detail = "a reasonably long detail string for the fill level";
  image.reset_history.push_back(cause);
  ASSERT_TRUE(store.commit(image));
  EXPECT_GT(store.fill_level(), empty_fill);
  EXPECT_LT(store.fill_level(), 1.0);
  EXPECT_GT(store.last_image_bytes(), 0u);
}

TEST(NvmWearTest, InjectedWriteFaultsFailCommitsThenClear) {
  fmf::NvmStore store(1024);
  store.inject_write_faults(2);
  EXPECT_FALSE(store.commit(small_image()));
  EXPECT_FALSE(store.commit(small_image()));
  EXPECT_EQ(store.write_errors(), 2u);
  EXPECT_EQ(store.commits(), 0u);
  // The burst is exhausted: the store works again and kept no image from
  // the failed attempts.
  EXPECT_TRUE(store.commit(small_image(7)));
  EXPECT_EQ(store.commits(), 1u);
  const auto loaded = store.load();
  ASSERT_TRUE(loaded.image.has_value());
  EXPECT_EQ(loaded.image->reset_count, 7u);
}

TEST(NvmWearTest, EraseBudgetWearsOutBothBanksAndBlocksCommits) {
  fmf::NvmStore store(1024);
  store.set_erase_budget(3);
  EXPECT_DOUBLE_EQ(store.wear_level(), 0.0);
  // Each successful commit erases the target bank once, alternating banks:
  // six commits exhaust a budget of three on both.
  for (std::uint32_t i = 1; i <= 6; ++i) {
    ASSERT_TRUE(store.commit(small_image(i))) << "commit " << i;
  }
  EXPECT_DOUBLE_EQ(store.wear_level(), 1.0);
  EXPECT_TRUE(store.bank_worn(0));
  EXPECT_TRUE(store.bank_worn(1));
  EXPECT_FALSE(store.commit(small_image(7)));
  EXPECT_EQ(store.write_errors(), 1u);
  // The last image written before wear-out survives.
  const auto loaded = store.load();
  ASSERT_TRUE(loaded.image.has_value());
  EXPECT_EQ(loaded.image->reset_count, 6u);
}

TEST(NvmWearTest, OverflowLeavesStoreUntouched) {
  fmf::NvmStore store(96);
  ASSERT_TRUE(store.commit(small_image(3)));
  fmf::NvmImage big = small_image(4);
  for (int i = 0; i < 8; ++i) {
    fmf::ResetCause cause;
    cause.source = fmf::ResetSource::kHardwareWatchdog;
    cause.detail = "padding entry " + std::to_string(i);
    big.reset_history.push_back(cause);
  }
  EXPECT_FALSE(store.commit(big));
  EXPECT_EQ(store.overflows(), 1u);
  EXPECT_EQ(store.write_errors(), 0u);
  const auto loaded = store.load();
  ASSERT_TRUE(loaded.image.has_value());
  EXPECT_EQ(loaded.image->reset_count, 3u);
}

TEST(NvmWearTest, TransgressionRecordsRoundTripThroughTheImage) {
  fmf::NvmStore store(1024);
  fmf::NvmImage image = small_image();
  wdg::TransgressionRecord first;
  first.section = "safespeed.cc";
  first.count = 4;
  first.worst = Duration::micros(5'250);
  first.last_at = SimTime(3'000'000);
  wdg::TransgressionRecord second;
  second.section = "lights.blend";
  second.count = 1;
  second.worst = Duration::micros(900);
  second.last_at = SimTime(1'500'000);
  image.transgressions = {first, second};
  ASSERT_TRUE(store.commit(image));

  const auto loaded = store.load();
  ASSERT_TRUE(loaded.image.has_value());
  ASSERT_EQ(loaded.image->transgressions.size(), 2u);
  const auto& a = loaded.image->transgressions[0];
  EXPECT_EQ(a.section, "safespeed.cc");
  EXPECT_EQ(a.count, 4u);
  EXPECT_EQ(a.worst.as_micros(), 5'250);
  EXPECT_EQ(a.last_at.as_micros(), 3'000'000);
  const auto& b = loaded.image->transgressions[1];
  EXPECT_EQ(b.section, "lights.blend");
  EXPECT_EQ(b.count, 1u);
}

// --- FMF flash-full degradation ----------------------------------------------

class FmfNvmPressureTest : public ::testing::Test {
 protected:
  sim::Engine engine;
  os::Kernel kernel{engine};
  rte::Rte rte{kernel};
  wdg::SoftwareWatchdog wd{esu_config()};
  rte::SignalBus signals;
  fmf::DtcStore dtcs{signals, {"env.ecu.temp_c"}, 16};
  int ecu_resets = 0;
  fmf::FaultManagementFramework fmf{
      rte, wd, [this] { ++ecu_resets; }, fmf::FmfConfig{}};

  void SetUp() override {
    fmf.attach();
    fmf.attach_dtc_store(&dtcs);
    signals.publish("env.ecu.temp_c", 96.5, SimTime(500));
  }

  void record_dtcs(int count) {
    for (int i = 0; i < count; ++i) {
      wdg::ErrorReport report;
      report.application = ApplicationId(static_cast<std::uint32_t>(i));
      report.type = wdg::ErrorType::kThermal;
      report.time = SimTime((i + 1) * 1'000);
      dtcs.record(report);
    }
  }

  std::vector<wdg::TransgressionRecord> transgressions() {
    wdg::TransgressionRecord record;
    record.section = "cc";
    record.count = 7;
    record.worst = Duration::micros(4'000);
    record.last_at = SimTime(9'000'000);
    return {record};
  }
};

TEST_F(FmfNvmPressureTest, PersistEvictsByPriorityAndKeepsTheResetChain) {
  fmf::NvmStore nvm(512);
  fmf.attach_nvm(&nvm);
  fmf.attach_transgression_store(
      [this](std::vector<wdg::TransgressionRecord>& out) {
        out = transgressions();
      },
      [](const std::vector<wdg::TransgressionRecord>&) {});
  record_dtcs(12);  // 12 DTCs with freeze frames: far beyond 512 bytes

  fmf::ResetCause cause;
  cause.source = fmf::ResetSource::kThermalShutdown;
  cause.error = wdg::ErrorType::kThermal;
  cause.time = SimTime(10'000'000);
  cause.detail = "thermal shutdown";
  fmf.request_safe_state(cause, SimTime(10'000'000));

  // The oversized image was degraded until it fitted, not dropped.
  EXPECT_GT(fmf.nvm_evictions(), 0u);
  EXPECT_EQ(fmf.nvm_write_failures(), 0u);
  EXPECT_GE(nvm.commits(), 1u);
  const auto loaded = nvm.load();
  ASSERT_TRUE(loaded.image.has_value());
  // Evict-by-priority never loses the reset-cause chain's newest entry or
  // the transgression records — they explain why the ECU is parked.
  ASSERT_FALSE(loaded.image->reset_history.empty());
  EXPECT_EQ(loaded.image->reset_history.back().source,
            fmf::ResetSource::kThermalShutdown);
  ASSERT_EQ(loaded.image->transgressions.size(), 1u);
  EXPECT_EQ(loaded.image->transgressions[0].count, 7u);
  // The DTCs paid the price: the eviction ladder strips freeze frames
  // first (cheap, keeps the entry), so at least some of the recorded
  // frames are gone. The safe-state decision itself records one more DTC,
  // hence the +1.
  ASSERT_LE(loaded.image->dtcs.size(), 13u);
  std::size_t frames = 0;
  for (const auto& dtc : loaded.image->dtcs) {
    if (dtc.freeze_frame.has_value()) ++frames;
  }
  EXPECT_LT(frames, loaded.image->dtcs.size());
}

TEST_F(FmfNvmPressureTest, PersistCountsWriteFailuresWithoutEvicting) {
  fmf::NvmStore nvm(4096);
  fmf.attach_nvm(&nvm);
  record_dtcs(2);
  nvm.inject_write_faults(1);
  fmf.persist();
  // A write fault is not a capacity problem: nothing to evict will help.
  EXPECT_EQ(fmf.nvm_write_failures(), 1u);
  EXPECT_EQ(fmf.nvm_evictions(), 0u);
  EXPECT_EQ(nvm.commits(), 0u);
  fmf.persist();
  EXPECT_EQ(nvm.commits(), 1u);
}

// An nvm_commit event claims the record reached NVM: a reset whose commit
// hit a write fault emits reset_performed but no nvm_commit, and counts
// the failure instead.
TEST_F(FmfNvmPressureTest, ResetEmitsNvmCommitOnlyWhenTheCommitSucceeded) {
  fmf::NvmStore nvm(4096);
  fmf.attach_nvm(&nvm);
  using telemetry::EventKind;
  struct Emitted {
    std::ptrdiff_t resets = 0;
    std::ptrdiff_t commits = 0;
  };
  const auto request_reset = [this](SimTime now) {
    std::vector<EventKind> kinds;
    telemetry::EventBus bus;
    bus.add_sink([&kinds](const telemetry::Event& event) {
      kinds.push_back(event.kind);
    });
    telemetry::EventScope scope(bus);
    fmf::ResetCause cause;
    cause.source = fmf::ResetSource::kEcuFaulty;
    fmf.request_reset(cause, now);
    return Emitted{
        std::count(kinds.begin(), kinds.end(), EventKind::kResetPerformed),
        std::count(kinds.begin(), kinds.end(), EventKind::kNvmCommit)};
  };

  nvm.inject_write_faults(1);
  const Emitted failed = request_reset(SimTime(1'000));
  EXPECT_EQ(failed.resets, 1);
  EXPECT_EQ(failed.commits, 0);
  EXPECT_EQ(fmf.nvm_write_failures(), 1u);

  const Emitted healthy = request_reset(SimTime(2'000));
  EXPECT_EQ(healthy.resets, 1);
  EXPECT_EQ(healthy.commits, 1);
  EXPECT_EQ(fmf.nvm_write_failures(), 1u);
  EXPECT_EQ(ecu_resets, 2);
}

// --- one-pass eviction ladder vs the per-entry reference ---------------------

// The flash-full ladder as persist() used to run it: drop one entry, offer
// the image again, repeat. Kept verbatim as the reference that the one-pass
// ladder must reproduce byte for byte and counter for counter.
bool reference_evict_one(fmf::NvmImage& image) {
  auto oldest_dtc = [&image](bool active) -> std::size_t {
    std::size_t best = image.dtcs.size();
    for (std::size_t i = 0; i < image.dtcs.size(); ++i) {
      if (image.dtcs[i].active != active) continue;
      if (best == image.dtcs.size() ||
          image.dtcs[i].last_seen < image.dtcs[best].last_seen) {
        best = i;
      }
    }
    return best;
  };
  for (const bool active : {false, true}) {
    std::size_t best = image.dtcs.size();
    for (std::size_t i = 0; i < image.dtcs.size(); ++i) {
      if (image.dtcs[i].active != active || !image.dtcs[i].freeze_frame) {
        continue;
      }
      if (best == image.dtcs.size() ||
          image.dtcs[i].last_seen < image.dtcs[best].last_seen) {
        best = i;
      }
    }
    if (best < image.dtcs.size()) {
      image.dtcs[best].freeze_frame.reset();
      return true;
    }
    const std::size_t victim = oldest_dtc(active);
    if (victim < image.dtcs.size()) {
      image.dtcs.erase(image.dtcs.begin() +
                       static_cast<std::ptrdiff_t>(victim));
      return true;
    }
  }
  if (image.reset_history.size() > 1) {
    image.reset_history.erase(image.reset_history.begin());
    return true;
  }
  return false;
}

struct ReferenceCounters {
  std::uint32_t evictions = 0;
  std::uint32_t write_failures = 0;
};

void reference_persist(fmf::NvmImage image, fmf::NvmStore& nvm,
                       ReferenceCounters& counters) {
  std::uint32_t overflows_seen = nvm.overflows();
  while (!nvm.commit(image)) {
    const bool capacity = nvm.overflows() > overflows_seen;
    overflows_seen = nvm.overflows();
    if (!capacity) {
      ++counters.write_failures;
      return;
    }
    if (!reference_evict_one(image)) return;
    ++counters.evictions;
  }
}

// Drives the FMF's persist() and the reference with the same fault memory
// into two equally sized stores and compares everything they expose.
class FmfEvictionLadderTest : public ::testing::Test {
 protected:
  sim::Engine engine;
  os::Kernel kernel{engine};
  rte::Rte rte{kernel};
  wdg::SoftwareWatchdog wd{esu_config()};
  rte::SignalBus signals;
  fmf::DtcStore dtcs{signals, {"env.ecu.temp_c", "vehicle.speed_kmh"}};
  fmf::FaultManagementFramework fmf{rte, wd, [] {}, fmf::FmfConfig{}};
  std::vector<wdg::TransgressionRecord> records;
  fmf::NvmStore unbounded{1u << 20};
  std::optional<fmf::NvmStore> fast;
  std::optional<fmf::NvmStore> reference;
  ReferenceCounters counters;  // the reference's evictions and failures
  ReferenceCounters fmf_counters;  // the FMF's, over the same persists

  void SetUp() override {
    fmf.attach();
    fmf.attach_dtc_store(&dtcs);
    fmf.attach_transgression_store(
        [this](std::vector<wdg::TransgressionRecord>& out) { out = records; },
        [](const std::vector<wdg::TransgressionRecord>&) {});
    signals.publish("env.ecu.temp_c", 96.5, SimTime(500));
  }

  void use_capacity(std::size_t capacity) {
    fast.emplace(capacity);
    reference.emplace(capacity);
    counters = ReferenceCounters{};
    fmf_counters = ReferenceCounters{};
  }

  /// Seeds the FMF's reset history and DTC store through a boot.
  void boot_with(const fmf::NvmImage& image) {
    ASSERT_TRUE(unbounded.commit(image));
    fmf.attach_nvm(&unbounded);
    fmf.boot_from_nvm(SimTime(0));
  }

  void record(std::uint32_t app, wdg::ErrorType type, std::int64_t at_us) {
    wdg::ErrorReport report;
    report.application = ApplicationId(app);
    report.type = type;
    report.time = SimTime(at_us);
    dtcs.record(report);
  }

  void inject_write_faults(std::uint32_t count) {
    fast->inject_write_faults(count);
    reference->inject_write_faults(count);
  }

  /// The image persist() builds, taken from a commit that never overflows.
  fmf::NvmImage current_image() {
    fmf.attach_nvm(&unbounded);
    fmf.persist();
    return *unbounded.load().image;
  }

  void persist_both() {
    reference_persist(current_image(), *reference, counters);
    const std::uint32_t evictions = fmf.nvm_evictions();
    const std::uint32_t failures = fmf.nvm_write_failures();
    fmf.attach_nvm(&*fast);
    fmf.persist();
    fmf_counters.evictions += fmf.nvm_evictions() - evictions;
    fmf_counters.write_failures += fmf.nvm_write_failures() - failures;
    expect_same_store();
  }

  void expect_same_store() {
    EXPECT_EQ(fmf_counters.evictions, counters.evictions);
    EXPECT_EQ(fmf_counters.write_failures, counters.write_failures);
    EXPECT_EQ(fast->overflows(), reference->overflows());
    EXPECT_EQ(fast->write_errors(), reference->write_errors());
    EXPECT_EQ(fast->commits(), reference->commits());
    EXPECT_EQ(fast->last_image_bytes(), reference->last_image_bytes());
    EXPECT_EQ(fast->active_bank(), reference->active_bank());
    EXPECT_EQ(fast->bank_bytes(0), reference->bank_bytes(0));
    EXPECT_EQ(fast->bank_bytes(1), reference->bank_bytes(1));
    const auto mine = fast->load();
    const auto theirs = reference->load();
    ASSERT_EQ(mine.image.has_value(), theirs.image.has_value());
    if (mine.image) {
      EXPECT_EQ(fmf::serialize(*mine.image), fmf::serialize(*theirs.image));
    }
  }
};

fmf::ResetCause history_entry(int i, std::size_t detail_len) {
  fmf::ResetCause cause;
  cause.source = fmf::ResetSource::kEcuFaulty;
  cause.error = wdg::ErrorType::kAliveness;
  cause.time = SimTime(i * 1'000);
  cause.detail = std::string(detail_len, static_cast<char>('a' + i % 26));
  return cause;
}

TEST_F(FmfEvictionLadderTest, MixedActiveAndPassiveFloodMatchesReference) {
  for (std::size_t capacity = 160; capacity <= 2'400; capacity += 61) {
    SCOPED_TRACE(capacity);
    dtcs.clear();
    use_capacity(capacity);
    for (std::uint32_t i = 0; i < 24; ++i) {
      record(i, i % 2 ? wdg::ErrorType::kThermal : wdg::ErrorType::kDeadline,
             (i * 7919) % 50'000);
      if (i % 3 == 0) {
        dtcs.set_passive({ApplicationId(i), i % 2 ? wdg::ErrorType::kThermal
                                                  : wdg::ErrorType::kDeadline});
      }
    }
    persist_both();
    // The flood goes on: new entries and repeats arrive between commits.
    for (std::uint32_t i = 20; i < 30; ++i) {
      record(i, wdg::ErrorType::kFilesystem, 60'000 + i);
    }
    persist_both();
  }
}

TEST_F(FmfEvictionLadderTest, LastSeenTiesBreakLikeTheReference) {
  for (std::size_t capacity = 120; capacity <= 1'400; capacity += 23) {
    SCOPED_TRACE(capacity);
    dtcs.clear();
    use_capacity(capacity);
    for (std::uint32_t i = 0; i < 18; ++i) {
      record(17 - i, wdg::ErrorType::kThermal, 5'000 * (i % 3));
      if (i % 2 == 0) {
        dtcs.set_passive({ApplicationId(17 - i), wdg::ErrorType::kThermal});
      }
    }
    persist_both();
  }
}

TEST_F(FmfEvictionLadderTest, PendingWriteFaultsOnAnOversizeImage) {
  fmf::NvmImage seed;
  for (int i = 0; i < 6; ++i) {
    seed.reset_history.push_back(history_entry(i, 12));
  }
  boot_with(seed);
  for (std::uint32_t i = 0; i < 16; ++i) {
    record(i, wdg::ErrorType::kThermal, 1'000 * i);
  }
  use_capacity(420);
  inject_write_faults(2);
  for (int round = 0; round < 4; ++round) {
    SCOPED_TRACE(round);
    record(40 + static_cast<std::uint32_t>(round), wdg::ErrorType::kFilesystem,
           90'000 + round);
    persist_both();
  }
  EXPECT_EQ(counters.write_failures, 2u);
  EXPECT_GT(counters.evictions, 0u);
}

TEST_F(FmfEvictionLadderTest, ImageThatCannotFitAfterFullEviction) {
  fmf::NvmImage seed;
  for (int i = 0; i < 16; ++i) {
    seed.reset_history.push_back(history_entry(i, 30));
  }
  boot_with(seed);
  for (std::uint32_t i = 0; i < 8; ++i) {
    record(i, wdg::ErrorType::kDeadline, 1'000 * i);
  }
  // Transgression records are never evicted: these alone overflow the bank.
  wdg::TransgressionRecord transgression;
  transgression.section = std::string(300, 's');
  records = {transgression};
  use_capacity(256);
  persist_both();
  persist_both();
  EXPECT_EQ(fast->commits(), 0u);
  // Every expendable entry went, and each persist offered one more image
  // than it evicted entries: 8 freeze frames + 8 DTCs + 15 reset causes.
  EXPECT_EQ(counters.evictions, 2u * 31u);
  EXPECT_EQ(fast->overflows(), 2u * 32u);
}

TEST_F(FmfEvictionLadderTest, SeededFloodsMatchReference) {
  util::Rng rng(0x5EED);
  for (int trial = 0; trial < 60; ++trial) {
    SCOPED_TRACE(trial);
    fmf::NvmImage seed;
    const auto history = rng.uniform_int(0, 16);
    for (int i = 0; i < history; ++i) {
      seed.reset_history.push_back(
          history_entry(i, static_cast<std::size_t>(rng.uniform_int(0, 60))));
    }
    const auto count = rng.uniform_int(0, 40);
    for (std::int64_t i = 0; i < count; ++i) {
      fmf::PersistedDtc dtc;
      dtc.key.application = ApplicationId(static_cast<std::uint32_t>(i));
      dtc.key.type = wdg::ErrorType::kThermal;
      dtc.occurrences = 1;
      dtc.last_seen = SimTime(1'000 * rng.uniform_int(0, 5));  // many ties
      dtc.active = rng.bernoulli(0.5);
      if (rng.bernoulli(0.7)) {
        fmf::FreezeFrame frame;
        const auto signals_in_frame = rng.uniform_int(0, 4);
        for (std::int64_t s = 0; s < signals_in_frame; ++s) {
          frame.signals.emplace_back(
              std::string(static_cast<std::size_t>(rng.uniform_int(1, 24)),
                          'n'),
              rng.uniform(-10.0, 10.0));
        }
        dtc.freeze_frame = std::move(frame);
      }
      seed.dtcs.push_back(std::move(dtc));
    }
    boot_with(seed);
    records.clear();
    if (rng.bernoulli(0.3)) {
      wdg::TransgressionRecord transgression;
      transgression.section = "section";
      records.push_back(transgression);
    }
    use_capacity(static_cast<std::size_t>(rng.uniform_int(40, 3'000)));
    for (int round = 0; round < 3; ++round) {
      if (rng.bernoulli(0.3)) inject_write_faults(1);
      record(100 + static_cast<std::uint32_t>(round),
             wdg::ErrorType::kFilesystem, 10'000 + round);
      persist_both();
    }
  }
}

// --- supervised-process client API -------------------------------------------

class PsuTest : public ::testing::Test {
 protected:
  wdg::SoftwareWatchdog wd{esu_config()};
  wdg::ProcessSupervisionUnit psu{wd};
  std::vector<wdg::ErrorReport> errors;
  std::size_t section = 0;

  void SetUp() override {
    wd.add_error_listener(
        [this](const wdg::ErrorReport& report) { errors.push_back(report); });
    wdg::SectionConfig config;
    config.name = "safespeed.cc";
    config.runnable = RunnableId(7);
    config.task = TaskId(1);
    config.application = ApplicationId(0);
    config.deadline = Duration::millis(2);
    section = psu.add_section(config);
  }
};

TEST_F(PsuTest, CloseWithinDeadlineIsSilent) {
  psu.open(section, SimTime(0));
  EXPECT_TRUE(psu.is_open(section));
  psu.close(section, SimTime(1'500));
  EXPECT_FALSE(psu.is_open(section));
  psu.cycle(SimTime(10'000));
  EXPECT_TRUE(errors.empty());
  EXPECT_EQ(psu.record(section).count, 0u);
  EXPECT_EQ(psu.transgressions(), 0u);
}

TEST_F(PsuTest, LateCloseRecordsTransgressionAndReportsDeadline) {
  psu.open(section, SimTime(0));
  psu.close(section, SimTime(5'000));  // 5 ms against a 2 ms deadline
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].type, wdg::ErrorType::kDeadline);
  EXPECT_EQ(errors[0].runnable, RunnableId(7));
  const wdg::TransgressionRecord& record = psu.record(section);
  EXPECT_EQ(record.count, 1u);
  EXPECT_EQ(record.worst.as_micros(), 5'000);
  EXPECT_EQ(record.last_at.as_micros(), 5'000);
  // A second, worse window raises the worst-case watermark.
  psu.open(section, SimTime(10'000));
  psu.close(section, SimTime(18'000));
  EXPECT_EQ(record.count, 2u);
  EXPECT_EQ(record.worst.as_micros(), 8'000);
  EXPECT_EQ(record.last_at.as_micros(), 18'000);
  EXPECT_EQ(psu.transgressions(), 2u);
}

TEST_F(PsuTest, HungWindowIsReportedOnceAndLateCloseOnlyUpdatesWorst) {
  psu.open(section, SimTime(0));
  psu.cycle(SimTime(1'000));
  EXPECT_TRUE(errors.empty());  // still inside the deadline
  psu.cycle(SimTime(10'000));
  ASSERT_EQ(errors.size(), 1u);  // overdue and still open: the hung client
  EXPECT_NE(errors[0].detail.find("still open"), std::string::npos);
  EXPECT_EQ(psu.record(section).count, 1u);
  // Worst stays zero while the window is open: its length is unknown.
  EXPECT_EQ(psu.record(section).worst.as_micros(), 0);
  psu.cycle(SimTime(20'000));
  EXPECT_EQ(errors.size(), 1u);  // one report per opening
  // The eventual close was already counted; it only settles the worst.
  psu.close(section, SimTime(25'000));
  EXPECT_EQ(errors.size(), 1u);
  EXPECT_EQ(psu.record(section).count, 1u);
  EXPECT_EQ(psu.record(section).worst.as_micros(), 25'000);
}

TEST_F(PsuTest, ReopenAbandonsThePreviousWindowUnreported) {
  psu.open(section, SimTime(0));
  // The client demonstrably made progress: a re-open restarts the window
  // instead of judging the abandoned one.
  psu.open(section, SimTime(9'000));
  psu.close(section, SimTime(10'000));
  psu.cycle(SimTime(20'000));
  EXPECT_TRUE(errors.empty());
  EXPECT_EQ(psu.record(section).count, 0u);
}

TEST_F(PsuTest, InstrumentedSectionGuardLeavesAHungWindowOpen) {
  {
    wdg::InstrumentedSection guard(psu, section, SimTime(0));
    EXPECT_TRUE(psu.is_open(section));
    // No close before scope exit: the destructor deliberately does NOT
    // close the window — a hung client never reaches its scope exit, and
    // papering over that would hide exactly the fault this API catches.
  }
  EXPECT_TRUE(psu.is_open(section));
  psu.cycle(SimTime(10'000));
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(psu.record(section).count, 1u);

  // The cooperative path: an explicit close inside the deadline is clean.
  wdg::InstrumentedSection guard(psu, section, SimTime(20'000));
  guard.close(SimTime(21'000));
  EXPECT_TRUE(guard.closed());
  EXPECT_FALSE(psu.is_open(section));
  EXPECT_EQ(psu.record(section).count, 1u);
}

TEST_F(PsuTest, RestoreRecordsMergesByNameAndNeverShrinks) {
  psu.open(section, SimTime(0));
  psu.close(section, SimTime(5'000));  // live: count 1, worst 5 ms

  wdg::TransgressionRecord stale;
  stale.section = "safespeed.cc";
  stale.count = 4;  // fault memory has seen more than this boot
  stale.worst = Duration::micros(3'000);
  stale.last_at = SimTime(2'000'000);
  wdg::TransgressionRecord unknown;
  unknown.section = "gone.section";
  unknown.count = 99;
  psu.restore_records({stale, unknown});

  const wdg::TransgressionRecord& record = psu.record(section);
  EXPECT_EQ(record.count, 4u);  // cumulative: the larger side wins
  EXPECT_EQ(record.worst.as_micros(), 5'000);  // live worst was worse
  EXPECT_EQ(record.last_at.as_micros(), 2'000'000);
  EXPECT_EQ(psu.section_count(), 1u);  // unknown names are ignored

  // A restore from an older image than the live state is a no-op.
  wdg::TransgressionRecord older;
  older.section = "safespeed.cc";
  older.count = 2;
  older.worst = Duration::micros(1'000);
  psu.restore_records({older});
  EXPECT_EQ(record.count, 4u);
  EXPECT_EQ(record.worst.as_micros(), 5'000);

  // The snapshot side feeds persist() with the merged state.
  std::vector<wdg::TransgressionRecord> snapshot;
  psu.persisted_records(snapshot);
  ASSERT_EQ(snapshot.size(), 1u);
  EXPECT_EQ(snapshot[0].section, "safespeed.cc");
  EXPECT_EQ(snapshot[0].count, 4u);
}

// --- environment DIDs over UDS-lite (round trip against injected values) -----

TEST(EnvironmentDiagTest, EnvironmentDidsRoundTripInjectedValues) {
  sim::Engine engine;
  bus::CanBus can(engine);
  rte::SignalBus signals;
  fmf::DtcStore dtcs(signals, {}, 8);
  wdg::SoftwareWatchdog wd{esu_config()};

  // Inject a known temperature and walk the ladder to the derate stage.
  double temp_c = 91.25;
  wdg::EnvironmentSupervisionUnit esu(wd, signals);
  wdg::ThermalChannel channel;
  channel.id = RunnableId(2100);
  channel.task = TaskId(1);
  channel.application = ApplicationId(0);
  channel.name = "ecu";
  channel.limits.warn_c = 60.0;
  channel.limits.derate_c = 80.0;
  channel.limits.shutdown_c = 105.0;
  channel.probe = [&temp_c] { return temp_c; };
  esu.add_thermal(channel);
  esu.cycle(SimTime(0));
  esu.cycle(SimTime(10'000));
  ASSERT_EQ(esu.stage(), wdg::ThermalStage::kDerate);

  // One worn, partially filled NVM bank pair: budget 4, one erase spent.
  fmf::NvmStore nvm(1024);
  nvm.set_erase_budget(4);
  fmf::NvmImage image;
  image.reset_count = 2;
  ASSERT_TRUE(nvm.commit(image));
  ASSERT_GT(nvm.fill_level(), 0.0);
  ASSERT_DOUBLE_EQ(nvm.wear_level(), 0.25);

  // One transgression on the only section: 5 ms against a 2 ms deadline.
  wdg::ProcessSupervisionUnit psu(wd);
  wdg::SectionConfig section;
  section.name = "safespeed.cc";
  section.runnable = RunnableId(7);
  section.task = TaskId(1);
  section.application = ApplicationId(0);
  section.deadline = Duration::millis(2);
  const std::size_t idx = psu.add_section(section);
  psu.open(idx, SimTime(0));
  psu.close(idx, SimTime(5'000));
  ASSERT_EQ(psu.record(idx).count, 1u);

  diag::DiagServer server(engine, can,
                          diag::DiagBackend{.dtcs = &dtcs,
                                            .environment = &esu,
                                            .process = &psu,
                                            .nvm = &nvm});
  diag::DiagTester tester(engine, can);

  auto read = [&](std::uint16_t did, std::optional<double>& out) {
    tester.read_data(did, [&out, did](const std::optional<diag::Response>& r) {
      ASSERT_TRUE(r.has_value() && r->positive) << "did " << did;
      ASSERT_EQ(*diag::get_u16(r->data, 0), did);
      out = *diag::get_f32(r->data, 2);
    });
  };
  std::optional<double> temperature, stage, flash_fill, flash_wear, total;
  std::optional<double> count, worst_us, last_ms;
  read(diag::kDidTemperature, temperature);
  read(diag::kDidDerateStage, stage);
  read(diag::kDidFlashFill, flash_fill);
  read(diag::kDidFlashWear, flash_wear);
  read(diag::kDidTransgressions, total);
  read(diag::kDidTransgressionBase, count);
  read(diag::kDidTransgressionBase + 1, worst_us);
  read(diag::kDidTransgressionBase + 2, last_ms);
  engine.run_until(SimTime(2'000'000));

  // Every identifier serves exactly the injected value.
  ASSERT_TRUE(temperature.has_value());
  EXPECT_DOUBLE_EQ(*temperature, 9125.0);  // centi-degrees of 91.25 C
  ASSERT_TRUE(stage.has_value());
  EXPECT_DOUBLE_EQ(*stage, 2.0);  // derate
  ASSERT_TRUE(flash_fill.has_value());
  EXPECT_FLOAT_EQ(static_cast<float>(*flash_fill),
                  static_cast<float>(nvm.fill_level() * 100.0));
  ASSERT_TRUE(flash_wear.has_value());
  EXPECT_DOUBLE_EQ(*flash_wear, 25.0);
  ASSERT_TRUE(total.has_value());
  EXPECT_DOUBLE_EQ(*total, 1.0);
  ASSERT_TRUE(count.has_value());
  EXPECT_DOUBLE_EQ(*count, 1.0);
  ASSERT_TRUE(worst_us.has_value());
  EXPECT_DOUBLE_EQ(*worst_us, 5'000.0);
  ASSERT_TRUE(last_ms.has_value());
  EXPECT_DOUBLE_EQ(*last_ms, 5.0);
}

}  // namespace
}  // namespace easis
