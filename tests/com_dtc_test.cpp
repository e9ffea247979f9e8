// Tests for the OSEK-COM-style messaging layer and the DTC store.
#include <gtest/gtest.h>

#include <sstream>

#include "fmf/dtc.hpp"
#include "fmf/fmf.hpp"
#include "os/com.hpp"
#include "os/kernel.hpp"
#include "rte/rte.hpp"
#include "rte/signal_bus.hpp"
#include "sim/engine.hpp"

namespace easis {
namespace {

using sim::Duration;
using sim::Engine;
using sim::SimTime;

// --- ComLayer -----------------------------------------------------------------

class ComTest : public ::testing::Test {
 protected:
  Engine engine;
  os::Kernel kernel{engine};
  os::ComLayer com{kernel};

  static os::MessagePayload bytes(std::initializer_list<std::uint8_t> b) {
    return os::MessagePayload(b);
  }
};

TEST_F(ComTest, UnqueuedKeepsLastValue) {
  const os::MessageId m = com.create_unqueued("speed");
  EXPECT_FALSE(com.receive(m).ok());
  EXPECT_EQ(com.receive(m).error(), os::Status::kNoFunc);
  EXPECT_EQ(com.send(m, bytes({1})), os::Status::kOk);
  EXPECT_EQ(com.send(m, bytes({2})), os::Status::kOk);
  auto r = com.receive(m);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), bytes({2}));
  // Non-destructive read.
  EXPECT_TRUE(com.receive(m).ok());
  EXPECT_EQ(com.sends(m), 2u);
}

TEST_F(ComTest, QueuedFifoOrder) {
  const os::MessageId m = com.create_queued("events", 4);
  com.send(m, bytes({1}));
  com.send(m, bytes({2}));
  com.send(m, bytes({3}));
  EXPECT_EQ(com.pending(m), 3u);
  EXPECT_EQ(com.receive(m).value(), bytes({1}));
  EXPECT_EQ(com.receive(m).value(), bytes({2}));
  EXPECT_EQ(com.receive(m).value(), bytes({3}));
  EXPECT_EQ(com.receive(m).error(), os::Status::kNoFunc);
}

TEST_F(ComTest, QueuedOverflowCounted) {
  const os::MessageId m = com.create_queued("q", 2);
  EXPECT_EQ(com.send(m, bytes({1})), os::Status::kOk);
  EXPECT_EQ(com.send(m, bytes({2})), os::Status::kOk);
  EXPECT_EQ(com.send(m, bytes({3})), os::Status::kLimit);
  EXPECT_EQ(com.overflows(m), 1u);
  EXPECT_EQ(com.pending(m), 2u);
}

TEST_F(ComTest, NotificationWakesReceiverTask) {
  os::TaskConfig config;
  config.name = "receiver";
  config.priority = 5;
  config.extended = true;
  const TaskId receiver = kernel.create_task(config);
  const os::MessageId m = com.create_queued("q", 4);
  com.set_notification(m, receiver, 0x1);

  std::vector<os::MessagePayload> received;
  kernel.set_job_factory(receiver, [&](os::Job& job) {
    os::Segment wait;
    wait.wait_mask = 0x1;
    wait.cost = Duration::micros(10);
    wait.on_complete = [&] {
      auto r = com.receive(m);
      if (r.ok()) received.push_back(r.value());
      kernel.chain_task(receiver);
    };
    job.push_back(std::move(wait));
  });

  kernel.start();
  kernel.activate_task(receiver);
  engine.schedule_at(SimTime(1'000), [&] { com.send(m, bytes({7})); });
  engine.schedule_at(SimTime(2'000), [&] { com.send(m, bytes({8})); });
  engine.run_until(SimTime(10'000));
  ASSERT_EQ(received.size(), 2u);
  EXPECT_EQ(received[0], bytes({7}));
  EXPECT_EQ(received[1], bytes({8}));
}

TEST_F(ComTest, BadMessageIdRejected) {
  EXPECT_EQ(com.send(os::MessageId(9), bytes({1})), os::Status::kId);
  EXPECT_EQ(com.receive(os::MessageId(9)).error(), os::Status::kId);
  EXPECT_THROW((void)com.pending(os::MessageId(9)), std::invalid_argument);
  EXPECT_THROW(com.create_queued("zero", 0), std::invalid_argument);
}

TEST_F(ComTest, MetadataAccessors) {
  const os::MessageId u = com.create_unqueued("u");
  const os::MessageId q = com.create_queued("q", 3);
  EXPECT_FALSE(com.is_queued(u));
  EXPECT_TRUE(com.is_queued(q));
  EXPECT_EQ(com.name(u), "u");
  EXPECT_EQ(com.message_count(), 2u);
  EXPECT_EQ(com.pending(u), 0u);
  com.send(u, bytes({1}));
  EXPECT_EQ(com.pending(u), 1u);
}

// --- DtcStore ---------------------------------------------------------------------

class DtcTest : public ::testing::Test {
 protected:
  rte::SignalBus signals;
  fmf::DtcStore store{signals, {"vehicle.speed_kmh", "driver.demand"}};

  wdg::ErrorReport report(std::uint32_t app, wdg::ErrorType type,
                          std::int64_t at_us) {
    wdg::ErrorReport r;
    r.runnable = RunnableId(1);
    r.task = TaskId(0);
    r.application = ApplicationId(app);
    r.type = type;
    r.time = SimTime(at_us);
    return r;
  }
};

TEST_F(DtcTest, FirstOccurrenceCreatesEntryWithFreezeFrame) {
  signals.publish("vehicle.speed_kmh", 87.5, SimTime(0));
  signals.publish("driver.demand", 0.6, SimTime(0));
  store.record(report(0, wdg::ErrorType::kAliveness, 1'000));
  const auto* entry =
      store.entry({ApplicationId(0), wdg::ErrorType::kAliveness});
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->occurrences, 1u);
  EXPECT_TRUE(entry->active);
  ASSERT_TRUE(entry->freeze_frame.has_value());
  ASSERT_EQ(entry->freeze_frame->signals.size(), 2u);
  EXPECT_DOUBLE_EQ(entry->freeze_frame->signals[0].second, 87.5);
  EXPECT_DOUBLE_EQ(entry->freeze_frame->signals[1].second, 0.6);
}

TEST_F(DtcTest, RepeatedOccurrencesCountedFreezeFrameKept) {
  signals.publish("vehicle.speed_kmh", 50.0, SimTime(0));
  store.record(report(0, wdg::ErrorType::kAliveness, 1'000));
  signals.publish("vehicle.speed_kmh", 90.0, SimTime(5'000));
  store.record(report(0, wdg::ErrorType::kAliveness, 6'000));
  const auto* entry =
      store.entry({ApplicationId(0), wdg::ErrorType::kAliveness});
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->occurrences, 2u);
  EXPECT_EQ(entry->first_seen, SimTime(1'000));
  EXPECT_EQ(entry->last_seen, SimTime(6'000));
  // Freeze frame stays from the FIRST occurrence.
  EXPECT_DOUBLE_EQ(entry->freeze_frame->signals[0].second, 50.0);
}

TEST_F(DtcTest, DistinctKeysDistinctEntries) {
  store.record(report(0, wdg::ErrorType::kAliveness, 1));
  store.record(report(0, wdg::ErrorType::kProgramFlow, 2));
  store.record(report(1, wdg::ErrorType::kAliveness, 3));
  EXPECT_EQ(store.count(), 3u);
}

TEST_F(DtcTest, PassiveAndReactivation) {
  store.record(report(0, wdg::ErrorType::kAliveness, 1));
  store.set_passive({ApplicationId(0), wdg::ErrorType::kAliveness});
  EXPECT_EQ(store.active_count(), 0u);
  EXPECT_EQ(store.count(), 1u);
  store.record(report(0, wdg::ErrorType::kAliveness, 2));
  EXPECT_EQ(store.active_count(), 1u);
  const auto* entry =
      store.entry({ApplicationId(0), wdg::ErrorType::kAliveness});
  EXPECT_EQ(entry->occurrences, 2u);
}

TEST_F(DtcTest, ClearRemovesEverything) {
  store.record(report(0, wdg::ErrorType::kAliveness, 1));
  store.clear();
  EXPECT_EQ(store.count(), 0u);
  EXPECT_EQ(store.entry({ApplicationId(0), wdg::ErrorType::kAliveness}),
            nullptr);
}

TEST_F(DtcTest, WriteRendersReadout) {
  signals.publish("vehicle.speed_kmh", 42.0, SimTime(0));
  store.record(report(0, wdg::ErrorType::kProgramFlow, 1'500));
  std::ostringstream out;
  store.write(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("program_flow"), std::string::npos);
  EXPECT_NE(text.find("ACTIVE"), std::string::npos);
  EXPECT_NE(text.find("vehicle.speed_kmh=42"), std::string::npos);
}

// --- FMF integration -----------------------------------------------------------------

TEST(DtcFmfIntegration, FaultsRecordedAndHealedDtcsPassive) {
  Engine engine;
  os::Kernel kernel(engine);
  rte::Rte rte(kernel);
  rte::SignalBus signals;
  wdg::WatchdogConfig wd_config;
  wd_config.check_period = Duration::millis(10);
  wd_config.aliveness_threshold = 2;
  wdg::SoftwareWatchdog wd(wd_config);

  const ApplicationId app = rte.register_application("App");
  const ComponentId comp = rte.register_component(app, "C");
  rte::RunnableSpec spec;
  spec.name = "R";
  const RunnableId runnable = rte.register_runnable(comp, spec);
  os::TaskConfig tc;
  tc.name = "T";
  tc.priority = 5;
  const TaskId task = kernel.create_task(tc);
  rte.map_runnable(runnable, task);

  wdg::RunnableMonitor m;
  m.runnable = runnable;
  m.task = task;
  m.application = app;
  m.name = "R";
  m.aliveness_cycles = 2;
  m.min_heartbeats = 1;
  m.arrival_cycles = 2;
  m.max_arrivals = 10;
  m.program_flow = false;
  wd.add_runnable(m);

  fmf::FaultManagementFramework framework(rte, wd, [] {});
  fmf::DtcStore store(signals, {"vehicle.speed_kmh"});
  framework.attach_dtc_store(&store);
  framework.attach();

  // Starve the runnable: two aliveness errors cross the threshold, the
  // restart treatment heals the application.
  for (int i = 0; i < 4; ++i) wd.main_function(SimTime(i * 10'000));

  EXPECT_GE(store.count(), 1u);
  const auto* entry = store.entry({app, wdg::ErrorType::kAliveness});
  ASSERT_NE(entry, nullptr);
  EXPECT_GE(entry->occurrences, 2u);
  // The restart treatment brought the app back to healthy -> DTC passive.
  EXPECT_FALSE(entry->active);
}

}  // namespace
}  // namespace easis
