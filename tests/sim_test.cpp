// Unit tests for the simulation kernel: time types, DES engine, vehicle
// and lane environment models.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "sim/lane.hpp"
#include "sim/time.hpp"
#include "sim/vehicle.hpp"

namespace easis::sim {
namespace {

// --- time ----------------------------------------------------------------

TEST(Duration, Factories) {
  EXPECT_EQ(Duration::millis(3).as_micros(), 3000);
  EXPECT_EQ(Duration::seconds(2).as_micros(), 2'000'000);
  EXPECT_DOUBLE_EQ(Duration::millis(1500).as_seconds(), 1.5);
}

TEST(Duration, Arithmetic) {
  const Duration a = Duration::millis(10);
  const Duration b = Duration::millis(4);
  EXPECT_EQ((a + b).as_micros(), 14000);
  EXPECT_EQ((a - b).as_micros(), 6000);
  EXPECT_EQ((a * 3).as_micros(), 30000);
  EXPECT_EQ((a / 2).as_micros(), 5000);
}

TEST(Duration, Comparison) {
  EXPECT_LT(Duration::millis(1), Duration::millis(2));
  EXPECT_EQ(Duration::millis(1), Duration::micros(1000));
}

TEST(SimTime, PlusMinusDuration) {
  const SimTime t0(1000);
  const SimTime t1 = t0 + Duration::micros(500);
  EXPECT_EQ(t1.as_micros(), 1500);
  EXPECT_EQ((t1 - t0).as_micros(), 500);
  EXPECT_EQ((t1 - Duration::micros(500)), t0);
}

// --- engine ---------------------------------------------------------------

TEST(Engine, FiresInTimeOrder) {
  Engine engine;
  std::vector<int> order;
  engine.schedule_at(SimTime(30), [&] { order.push_back(3); });
  engine.schedule_at(SimTime(10), [&] { order.push_back(1); });
  engine.schedule_at(SimTime(20), [&] { order.push_back(2); });
  engine.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(engine.now(), SimTime(30));
}

TEST(Engine, SameTimeOrderedByPriorityThenInsertion) {
  Engine engine;
  std::vector<int> order;
  engine.schedule_at(SimTime(10), [&] { order.push_back(2); },
                     EventPriority::kDefault);
  engine.schedule_at(SimTime(10), [&] { order.push_back(1); },
                     EventPriority::kKernel);
  engine.schedule_at(SimTime(10), [&] { order.push_back(3); },
                     EventPriority::kDefault);
  engine.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, ScheduleInIsRelative) {
  Engine engine;
  SimTime fired;
  engine.schedule_at(SimTime(100), [&] {
    engine.schedule_in(Duration::micros(50), [&] { fired = engine.now(); });
  });
  engine.run_all();
  EXPECT_EQ(fired, SimTime(150));
}

TEST(Engine, RejectsPastEvents) {
  Engine engine;
  engine.schedule_at(SimTime(100), [] {});
  engine.run_all();
  EXPECT_THROW(engine.schedule_at(SimTime(50), [] {}), std::invalid_argument);
  EXPECT_THROW(engine.schedule_in(Duration::micros(-1), [] {}),
               std::invalid_argument);
}

TEST(Engine, CancelPreventsFiring) {
  Engine engine;
  bool fired = false;
  const EventId id = engine.schedule_at(SimTime(10), [&] { fired = true; });
  EXPECT_TRUE(engine.cancel(id));
  engine.run_all();
  EXPECT_FALSE(fired);
}

TEST(Engine, CancelUnknownIdFails) {
  Engine engine;
  EXPECT_FALSE(engine.cancel(0));
  EXPECT_FALSE(engine.cancel(999));
}

TEST(Engine, CancelAfterFiringFailsAndKeepsTheCount) {
  Engine engine;
  const EventId fired = engine.schedule_at(SimTime(10), [] {});
  engine.run_until(SimTime(10));
  EXPECT_FALSE(engine.cancel(fired));
  EXPECT_EQ(engine.pending_events(), 0u);
  // A later event still fires, and cancelling twice fails the second time.
  bool later_fired = false;
  engine.schedule_at(SimTime(30), [&] { later_fired = true; });
  const EventId twice = engine.schedule_at(SimTime(20), [] {});
  EXPECT_EQ(engine.pending_events(), 2u);
  EXPECT_TRUE(engine.cancel(twice));
  EXPECT_FALSE(engine.cancel(twice));
  EXPECT_EQ(engine.pending_events(), 1u);
  engine.run_all();
  EXPECT_TRUE(later_fired);
  EXPECT_EQ(engine.pending_events(), 0u);
  EXPECT_EQ(engine.events_fired(), 2u);
}

TEST(Engine, EventCannotCancelItselfWhileFiring) {
  Engine engine;
  EventId self = 0;
  bool cancelled = true;
  self = engine.schedule_at(SimTime(5),
                            [&] { cancelled = engine.cancel(self); });
  engine.run_all();
  EXPECT_FALSE(cancelled);
  EXPECT_EQ(engine.pending_events(), 0u);
}

TEST(Engine, RunUntilAdvancesClockEvenWithoutEvents) {
  Engine engine;
  engine.run_until(SimTime(500));
  EXPECT_EQ(engine.now(), SimTime(500));
}

TEST(Engine, RunUntilStopsAtBoundaryInclusive) {
  Engine engine;
  std::vector<int> order;
  engine.schedule_at(SimTime(10), [&] { order.push_back(1); });
  engine.schedule_at(SimTime(20), [&] { order.push_back(2); });
  engine.schedule_at(SimTime(21), [&] { order.push_back(3); });
  engine.run_until(SimTime(20));
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(engine.now(), SimTime(20));
  engine.run_until(SimTime(30));
  EXPECT_EQ(order.size(), 3u);
}

TEST(Engine, EventsScheduledDuringRunFire) {
  Engine engine;
  int count = 0;
  std::function<void()> reschedule = [&] {
    if (++count < 5) engine.schedule_in(Duration::micros(10), reschedule);
  };
  engine.schedule_at(SimTime(0), reschedule);
  engine.run_until(SimTime(1000));
  EXPECT_EQ(count, 5);
}

TEST(Engine, EveryFiresFromNowPlusPeriodOnePeriodApart) {
  Engine engine;
  engine.run_until(SimTime(5));
  std::vector<std::int64_t> fired_at;
  engine.every(Duration::micros(10),
               [&] { fired_at.push_back(engine.now().as_micros()); });
  engine.run_until(SimTime(45));
  EXPECT_EQ(fired_at, (std::vector<std::int64_t>{15, 25, 35, 45}));
  EXPECT_EQ(engine.pending_events(), 1u);
}

TEST(Engine, EveryHonoursPriority) {
  Engine engine;
  std::vector<int> order;
  engine.every(Duration::micros(10), [&] { order.push_back(3); },
               EventPriority::kMonitor);
  engine.schedule_at(SimTime(10), [&] { order.push_back(2); });
  engine.every(Duration::micros(10), [&] { order.push_back(1); },
               EventPriority::kKernel);
  engine.run_until(SimTime(20));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 1, 3}));
}

TEST(Engine, EveryMatchesTheHandWrittenLoop) {
  // The body schedules an event for the instant of the next repetition:
  // it was scheduled first, so it fires first, as in a loop that
  // reschedules itself after its body.
  auto trace = [](bool use_every) {
    Engine engine;
    std::vector<std::string> order;
    int ticks = 0;
    auto body = [&] {
      order.push_back("tick" + std::to_string(++ticks));
      engine.schedule_in(Duration::micros(10),
                         [&] { order.push_back("body"); });
    };
    std::function<void()> loop = [&] {
      body();
      engine.schedule_in(Duration::micros(10), loop);
    };
    if (use_every) {
      engine.every(Duration::micros(10), body);
    } else {
      engine.schedule_in(Duration::micros(10), loop);
    }
    engine.run_until(SimTime(30));
    return order;
  };
  EXPECT_EQ(trace(true), (std::vector<std::string>{"tick1", "body", "tick2",
                                                   "body", "tick3"}));
  EXPECT_EQ(trace(true), trace(false));
}

TEST(Engine, CancelledSeriesStopsAndLeavesNothingQueued) {
  Engine engine;
  int ticks = 0;
  Timer timer = engine.every(Duration::micros(10), [&] { ++ticks; });
  engine.run_until(SimTime(25));
  EXPECT_EQ(ticks, 2);
  EXPECT_TRUE(timer.cancel());
  EXPECT_EQ(engine.pending_events(), 0u);
  engine.run_until(SimTime(100));
  EXPECT_EQ(ticks, 2);
}

TEST(Engine, SeriesCancelledFromItsOwnActionFiresNoMore) {
  Engine engine;
  int ticks = 0;
  Timer timer;
  timer = engine.every(Duration::micros(10), [&] {
    if (++ticks == 3) {
      EXPECT_TRUE(timer.cancel());
    }
  });
  engine.run_until(SimTime(100));
  EXPECT_EQ(ticks, 3);
  EXPECT_EQ(engine.pending_events(), 0u);
  EXPECT_EQ(engine.events_fired(), 3u);
}

TEST(Engine, CancellingAStoppedTimerFails) {
  Engine engine;
  EXPECT_FALSE(Timer().cancel());
  Timer timer = engine.every(Duration::micros(10), [] {});
  const Timer copy = timer;
  EXPECT_TRUE(timer.cancel());
  EXPECT_FALSE(timer.cancel());
  Timer stale = copy;
  EXPECT_FALSE(stale.cancel());
  // A series cancelled from inside its action is stopped too.
  Timer self;
  int ticks = 0;
  self = engine.every(Duration::micros(10), [&] {
    ++ticks;
    EXPECT_TRUE(self.cancel());
    EXPECT_FALSE(self.cancel());
  });
  engine.run_until(SimTime(50));
  EXPECT_EQ(ticks, 1);
  EXPECT_FALSE(self.cancel());
}

TEST(Engine, StaleIdDoesNotAliasTheEventReusingItsSlot) {
  // One live event at a time, so each new event reuses the settled slot.
  Engine engine;
  const EventId fired = engine.schedule_at(SimTime(1), [] {});
  engine.run_all();
  bool after_fired = false;
  const EventId reused =
      engine.schedule_at(SimTime(2), [&] { after_fired = true; });
  EXPECT_NE(reused, fired);
  EXPECT_FALSE(engine.is_pending(fired));
  EXPECT_FALSE(engine.cancel(fired));
  EXPECT_TRUE(engine.is_pending(reused));
  EXPECT_TRUE(engine.cancel(reused));
  // `reused` is now cancelled and its slot free again.
  bool after_cancelled = false;
  const EventId again =
      engine.schedule_at(SimTime(3), [&] { after_cancelled = true; });
  EXPECT_NE(again, reused);
  EXPECT_NE(again, fired);
  EXPECT_FALSE(engine.is_pending(reused));
  EXPECT_FALSE(engine.cancel(reused));
  EXPECT_FALSE(engine.cancel(fired));
  EXPECT_TRUE(engine.is_pending(again));
  engine.run_all();
  EXPECT_FALSE(after_fired);
  EXPECT_TRUE(after_cancelled);
  EXPECT_EQ(engine.events_cancelled(), 1u);
  EXPECT_EQ(engine.events_fired(), 2u);
}

TEST(Engine, StoppedTimerDoesNotStopTheSeriesReusingItsSlot) {
  Engine engine;
  Timer stopped = engine.every(Duration::micros(10), [] {});
  const EventId stale_firing = stopped.next_firing();
  EXPECT_NE(stale_firing, EventId{0});
  EXPECT_TRUE(stopped.cancel());
  EXPECT_EQ(stopped.next_firing(), EventId{0});
  int ticks = 0;
  Timer live = engine.every(Duration::micros(10), [&] { ++ticks; });
  EXPECT_FALSE(stopped.cancel());
  EXPECT_EQ(stopped.next_firing(), EventId{0});
  EXPECT_FALSE(engine.cancel(stale_firing));
  EXPECT_NE(live.next_firing(), EventId{0});
  EXPECT_NE(live.next_firing(), stale_firing);
  engine.run_until(SimTime(30));
  EXPECT_EQ(ticks, 3);
  // A one-shot in a stopped series' slot is not the series either.
  EXPECT_TRUE(live.cancel());
  bool fired = false;
  engine.schedule_in(Duration::micros(5), [&] { fired = true; });
  EXPECT_FALSE(live.cancel());
  EXPECT_FALSE(stopped.cancel());
  engine.run_all();
  EXPECT_TRUE(fired);
  EXPECT_EQ(ticks, 3);
}

TEST(Engine, CancellingASeriesFiringByIdLeavesItDormant) {
  Engine engine;
  int ticks = 0;
  Timer timer = engine.every(Duration::micros(10), [&] { ++ticks; });
  engine.run_until(SimTime(15));
  const EventId firing = timer.next_firing();
  EXPECT_TRUE(engine.is_pending(firing));
  EXPECT_TRUE(engine.cancel(firing));
  EXPECT_FALSE(engine.is_pending(firing));
  EXPECT_EQ(timer.next_firing(), EventId{0});
  EXPECT_EQ(engine.pending_events(), 0u);
  // A dormant series keeps its slot: this one-shot must not take it over.
  bool fired = false;
  engine.schedule_in(Duration::micros(50), [&] { fired = true; });
  engine.run_until(SimTime(100));
  EXPECT_TRUE(fired);
  EXPECT_EQ(ticks, 1);
  EXPECT_TRUE(timer.cancel());
  EXPECT_FALSE(timer.cancel());
  EXPECT_EQ(engine.events_cancelled(), 1u);
  EXPECT_EQ(engine.events_scheduled(), 3u);
}

TEST(Engine, EveryFromFiresFirstAtTheGivenInstant) {
  Engine engine;
  std::vector<std::int64_t> fired_at;
  engine.every_from(SimTime(3), Duration::micros(10),
                    [&] { fired_at.push_back(engine.now().as_micros()); });
  engine.run_until(SimTime(30));
  EXPECT_EQ(fired_at, (std::vector<std::int64_t>{3, 13, 23}));
  EXPECT_THROW(engine.every(Duration::zero(), [] {}), std::invalid_argument);
  EXPECT_THROW(engine.every_from(SimTime(1), Duration::micros(10), [] {}),
               std::invalid_argument);
}

TEST(TimerGroup, CancelAllStopsOneShotsAndSeries) {
  Engine engine;
  TimerGroup group(engine);
  int fired = 0;
  group.add(engine.schedule_in(Duration::micros(5), [&] { ++fired; }));
  group.add(engine.schedule_in(Duration::micros(50), [&] { ++fired; }));
  group.add(engine.every(Duration::micros(10), [&] { ++fired; }));
  engine.schedule_in(Duration::micros(60), [] {});  // not in the group
  engine.run_until(SimTime(12));
  EXPECT_EQ(fired, 2);
  group.cancel_all();
  EXPECT_EQ(group.size(), 0u);
  EXPECT_EQ(engine.pending_events(), 1u);
  engine.run_until(SimTime(100));
  EXPECT_EQ(fired, 2);
}

TEST(TimerGroup, StaysBoundedOverManyRounds) {
  // FlexRay-style: a cycle series that lays out 64 slot one-shots per round.
  Engine engine;
  TimerGroup group(engine);
  constexpr int kSlots = 64;
  std::uint64_t slot_ends = 0;
  auto layout = [&] {
    for (int s = 1; s <= kSlots; ++s) {
      group.add(engine.schedule_in(Duration::micros(s), [&] { ++slot_ends; }));
    }
  };
  layout();
  group.add(engine.every(Duration::micros(kSlots), layout));
  std::size_t largest = 0;
  for (int round = 0; round < 10000; ++round) {
    engine.run_for(Duration::micros(kSlots));
    largest = std::max(largest, group.size());
  }
  EXPECT_EQ(slot_ends, 10000u * kSlots);
  EXPECT_LE(largest, 4u * kSlots);
  group.cancel_all();
  EXPECT_EQ(engine.pending_events(), 0u);
}

TEST(Engine, PendingEventsCount) {
  Engine engine;
  const EventId a = engine.schedule_at(SimTime(10), [] {});
  engine.schedule_at(SimTime(20), [] {});
  EXPECT_EQ(engine.pending_events(), 2u);
  engine.cancel(a);
  EXPECT_EQ(engine.pending_events(), 1u);
}

TEST(Engine, StepFiresExactlyOne) {
  Engine engine;
  int fired = 0;
  engine.schedule_at(SimTime(10), [&] { ++fired; });
  engine.schedule_at(SimTime(20), [&] { ++fired; });
  EXPECT_TRUE(engine.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(engine.step());
  EXPECT_FALSE(engine.step());
  EXPECT_EQ(engine.events_fired(), 2u);
}

TEST(Engine, DeterministicAcrossRuns) {
  auto run = [] {
    Engine engine;
    std::vector<std::int64_t> trace;
    for (int i = 0; i < 50; ++i) {
      engine.schedule_at(SimTime((i * 7) % 40), [&trace, &engine] {
        trace.push_back(engine.now().as_micros());
      });
    }
    engine.run_all();
    return trace;
  };
  EXPECT_EQ(run(), run());
}

// --- vehicle ------------------------------------------------------------------

TEST(VehicleModel, AcceleratesUnderThrottle) {
  VehicleModel vehicle;
  vehicle.set_drive_command(1.0);
  for (int i = 0; i < 1000; ++i) vehicle.step(Duration::millis(10));
  EXPECT_GT(vehicle.speed_kmh(), 50.0);
  EXPECT_GT(vehicle.position_m(), 0.0);
}

TEST(VehicleModel, ReachesDragLimitedTopSpeed) {
  VehicleModel vehicle;
  vehicle.set_drive_command(1.0);
  for (int i = 0; i < 60000; ++i) vehicle.step(Duration::millis(10));
  // Equilibrium: 6000 N = 0.8 v^2 + 150 -> v ~ 85.5 m/s.
  EXPECT_NEAR(vehicle.speed_mps(), 85.5, 1.0);
}

TEST(VehicleModel, BrakesToStandstill) {
  VehicleModel vehicle;
  vehicle.set_speed_mps(30.0);
  vehicle.set_drive_command(-1.0);
  for (int i = 0; i < 1000; ++i) vehicle.step(Duration::millis(10));
  EXPECT_DOUBLE_EQ(vehicle.speed_mps(), 0.0);
}

TEST(VehicleModel, SpeedNeverNegative) {
  VehicleModel vehicle;
  vehicle.set_drive_command(-1.0);
  vehicle.step(Duration::seconds(10));
  EXPECT_GE(vehicle.speed_mps(), 0.0);
}

TEST(VehicleModel, CommandClamped) {
  VehicleModel vehicle;
  vehicle.set_drive_command(5.0);
  EXPECT_DOUBLE_EQ(vehicle.drive_command(), 1.0);
  vehicle.set_drive_command(-5.0);
  EXPECT_DOUBLE_EQ(vehicle.drive_command(), -1.0);
}

TEST(VehicleModel, CoastsDownWithoutThrottle) {
  VehicleModel vehicle;
  vehicle.set_speed_mps(30.0);
  vehicle.set_drive_command(0.0);
  for (int i = 0; i < 100; ++i) vehicle.step(Duration::millis(10));
  EXPECT_LT(vehicle.speed_mps(), 30.0);
}

// --- lane -----------------------------------------------------------------------

TEST(LaneModel, DriftsWithConfiguredRate) {
  LaneModel lane;
  lane.set_drift_rate(0.5);
  for (int i = 0; i < 100; ++i) lane.step(Duration::millis(10));
  EXPECT_NEAR(lane.lateral_offset_m(), 0.5, 1e-9);
}

TEST(LaneModel, DepartureThreshold) {
  LaneModel lane;
  EXPECT_FALSE(lane.departing());
  lane.set_lateral_offset_m(1.3);
  EXPECT_TRUE(lane.departing());
  lane.set_lateral_offset_m(-1.3);
  EXPECT_TRUE(lane.departing());
}

TEST(LaneModel, CorrectionPullsBackToCentre) {
  LaneModel lane;
  lane.set_lateral_offset_m(1.0);
  lane.set_correction_rate(0.5);
  for (int i = 0; i < 150; ++i) lane.step(Duration::millis(10));
  EXPECT_LT(lane.lateral_offset_m(), 0.5);
}

TEST(LaneModel, OffsetClampedToLaneWidth) {
  LaneModel lane;
  lane.set_drift_rate(10.0);
  for (int i = 0; i < 1000; ++i) lane.step(Duration::millis(10));
  EXPECT_LE(lane.lateral_offset_m(), lane.params().lane_width_m);
}

}  // namespace
}  // namespace easis::sim
