// Property-style tests: invariants under randomized (seeded) workloads and
// parameter sweeps, using parameterized gtest suites.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <ostream>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "apps/monitor_hypothesis.hpp"
#include "inject/faults.hpp"
#include "inject/injector.hpp"
#include "os/kernel.hpp"
#include "sim/engine.hpp"
#include "util/random.hpp"
#include "rte/rte.hpp"
#include "validator/central_node.hpp"
#include "wdg/config_check.hpp"
#include "wdg/pfc.hpp"
#include "wdg/service.hpp"
#include "wdg/tsi.hpp"
#include "wdg/watchdog.hpp"

namespace easis {
namespace {

using sim::Duration;
using sim::Engine;
using sim::SimTime;

// --- engine determinism across seeds ---------------------------------------------

class EngineDeterminism : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EngineDeterminism, SameSeedSameTrace) {
  auto run = [](std::uint64_t seed) {
    util::Rng rng(seed);
    Engine engine;
    std::vector<std::int64_t> trace;
    std::function<void(int)> spawn = [&](int depth) {
      trace.push_back(engine.now().as_micros());
      if (depth <= 0) return;
      const int children = static_cast<int>(rng.uniform_int(1, 3));
      for (int i = 0; i < children; ++i) {
        engine.schedule_in(Duration::micros(rng.uniform_int(1, 50)),
                           [&spawn, depth] { spawn(depth - 1); });
      }
    };
    engine.schedule_at(SimTime(0), [&spawn] { spawn(5); });
    engine.run_all();
    return trace;
  };
  EXPECT_EQ(run(GetParam()), run(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineDeterminism,
                         ::testing::Values(1u, 7u, 42u, 1234u, 99999u));

// --- engine conservation under a random schedule/cancel/run mix -------------------

class EngineConservation : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EngineConservation, EveryEventFiresPendsOrWasCancelled) {
  util::Rng rng(GetParam());
  Engine engine;
  std::vector<sim::EventId> ids;
  std::vector<sim::EventId> fired;
  std::uint64_t cancels = 0;
  // A running series has one firing queued at a time and queues the next
  // one after each firing: started + fires events in all.
  std::vector<sim::Timer> series;
  std::uint64_t series_fires = 0;
  // Some events schedule a child when they fire.
  std::function<void()> schedule = [&] {
    auto id = std::make_shared<sim::EventId>();
    const bool spawns = rng.uniform_int(0, 3) == 0;
    *id = engine.schedule_in(Duration::micros(rng.uniform_int(0, 100)),
                             [&fired, &schedule, id, spawns] {
                               fired.push_back(*id);
                               if (spawns) schedule();
                             });
    ids.push_back(*id);
  };
  SimTime last = engine.now();
  for (int step = 0; step < 2000; ++step) {
    switch (rng.uniform_int(0, 4)) {
      case 0:
      case 1:
        schedule();
        break;
      case 2:
        if (!ids.empty()) {
          const auto pick = static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(ids.size()) - 1));
          if (engine.cancel(ids[pick])) ++cancels;
        }
        if (!fired.empty()) {
          const auto pick = static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(fired.size()) - 1));
          EXPECT_FALSE(engine.cancel(fired[pick]));
        }
        break;
      case 3:
        // Start a series or cancel a random one (perhaps stopped already).
        if (series.empty() || rng.uniform_int(0, 1) == 0) {
          series.push_back(
              engine.every(Duration::micros(rng.uniform_int(1, 40)),
                           [&series_fires] { ++series_fires; }));
        } else {
          const auto pick = static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(series.size()) - 1));
          if (series[pick].cancel()) ++cancels;
          EXPECT_FALSE(series[pick].cancel());
        }
        break;
      default:
        engine.run_until(engine.now() +
                         Duration::micros(rng.uniform_int(0, 60)));
        break;
    }
    ASSERT_GE(engine.now(), last);
    last = engine.now();
    ASSERT_EQ(engine.events_fired() + engine.pending_events() + cancels,
              ids.size() + series.size() + series_fires);
    ASSERT_EQ(engine.events_scheduled(), ids.size() + series.size() + series_fires);
    ASSERT_EQ(engine.events_cancelled(), cancels);
  }
  EXPECT_EQ(engine.events_fired(), fired.size() + series_fires);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineConservation,
                         ::testing::Values(3u, 17u, 2024u, 65537u));

// --- kernel schedulability property --------------------------------------------------

// gtest prints a parameter without PrintTo as its object bytes, and ctest
// names each instance after that print, so parameter structs leave no
// padding: uninitialised padding bytes would rename the tests run to run.
struct TaskSetParam {
  std::int64_t tasks;
  std::uint64_t seed;
};

class KernelTaskSet : public ::testing::TestWithParam<TaskSetParam> {};

// With total utilization well below 1 and distinct priorities, every
// periodic activation completes before the next one (no lost activations),
// and the consumed time equals jobs * cost exactly.
TEST_P(KernelTaskSet, AllJobsCompleteUnderLowUtilization) {
  const auto [task_count, seed] = GetParam();
  util::Rng rng(seed);
  Engine engine;
  os::Kernel kernel(engine);
  const CounterId counter = kernel.create_counter(
      {.name = "sys", .tick = Duration::millis(1)});

  struct Entry {
    TaskId task;
    AlarmId alarm;
    std::uint64_t period_ticks;
    Duration cost;
  };
  std::vector<Entry> entries;
  for (int i = 0; i < task_count; ++i) {
    os::TaskConfig config;
    config.name = std::string("t").append(std::to_string(i));
    config.priority = i;  // distinct priorities
    // Short backlogs are legal (queued activations); lost ones are not.
    config.max_pending_activations = 3;
    const TaskId id = kernel.create_task(config);
    const auto period_ticks =
        static_cast<std::uint64_t>(rng.uniform_int(5, 40));
    // Keep each task's utilization under ~4%.
    const Duration cost =
        Duration::micros(rng.uniform_int(
            50, static_cast<std::int64_t>(period_ticks) * 40));
    kernel.set_job_factory(id, [cost](os::Job& job) {
      os::Segment s;
      s.cost = cost;
      job.push_back(std::move(s));
    });
    const AlarmId alarm =
        kernel.create_alarm(counter, os::AlarmActionActivateTask{id});
    entries.push_back({id, alarm, period_ticks, cost});
  }
  kernel.start();
  for (const auto& e : entries) {
    kernel.set_rel_alarm(e.alarm, e.period_ticks, e.period_ticks);
  }

  int limit_errors = 0;
  kernel.set_error_hook([&](os::Status s, std::string_view) {
    if (s == os::Status::kLimit) ++limit_errors;
  });

  const std::int64_t horizon_ms = 2000;
  engine.run_until(SimTime(horizon_ms * 1000));

  EXPECT_EQ(limit_errors, 0) << "activations were lost";
  for (const auto& e : entries) {
    const auto expected_jobs = static_cast<std::uint64_t>(
        horizon_ms / static_cast<std::int64_t>(e.period_ticks));
    // Allow a short backlog (queued activations) to still be in flight.
    EXPECT_GE(kernel.jobs_completed(e.task) + 4, expected_jobs);
    EXPECT_LE(kernel.jobs_completed(e.task), expected_jobs);
    const auto consumed = kernel.total_consumed(e.task).as_micros();
    const auto full_jobs = kernel.jobs_completed(e.task);
    EXPECT_GE(consumed,
              static_cast<std::int64_t>(full_jobs) * e.cost.as_micros());
  }
}

INSTANTIATE_TEST_SUITE_P(
    TaskSets, KernelTaskSet,
    ::testing::Values(TaskSetParam{2, 11}, TaskSetParam{4, 22},
                      TaskSetParam{6, 33}, TaskSetParam{8, 44},
                      TaskSetParam{10, 55}));

// --- tickless hardware counters against the 1 ms tick loop ---------------------------

// Random SetRelAlarm/CancelAlarm/reset/start sequences on one hardware
// counter must fire the same alarms at the same instants, in the same
// order, as a reference tick loop that advances the counter every 1 ms
// and scans its alarms in creation order. Two alarm actions call back
// into the kernel from inside an expiry.
class TicklessCounter : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TicklessCounter, FiresLikeTheTickLoop) {
  constexpr std::size_t kAlarms = 4;
  constexpr std::int64_t kTickUs = 1000;
  constexpr std::uint64_t kModulo = 64;  // max_allowed_value 63
  util::Rng rng(GetParam());
  Engine engine;
  os::Kernel kernel(engine);
  const CounterId counter = kernel.create_counter(
      {.name = "sys", .tick = Duration::micros(kTickUs),
       .max_allowed_value = kModulo - 1});
  using Firing = std::pair<std::int64_t, std::size_t>;  // (time us, alarm)
  std::vector<Firing> got;
  std::vector<AlarmId> alarms;
  for (std::size_t i = 0; i < kAlarms; ++i) {
    alarms.push_back(kernel.create_alarm(
        counter, os::AlarmActionCallback{[&, i] {
          got.emplace_back(engine.now().as_micros(), i);
          if (i == 2 && !kernel.alarm_armed(alarms[1])) {
            kernel.set_rel_alarm(alarms[1], 3, 0);
          }
          if (i == 3 && kernel.alarm_armed(alarms[0])) {
            kernel.cancel_alarm(alarms[0]);
          }
        }}));
  }

  struct ModelAlarm {
    bool armed = false;
    std::uint64_t expiry = 0;
    std::uint64_t cycle = 0;
  };
  struct Model {
    bool started = false;
    std::int64_t origin = 0;
    std::uint64_t ticks = 0;
    std::array<ModelAlarm, kAlarms> alarms{};
    std::vector<Firing> fired;
    std::uint64_t firing_ticks = 0;  // ticks that fired at least one alarm

    void advance_to(std::int64_t now) {
      if (!started) return;
      while (origin + static_cast<std::int64_t>(ticks + 1) * kTickUs <= now) {
        ++ticks;
        bool any = false;
        for (std::size_t i = 0; i < kAlarms; ++i) {
          ModelAlarm& a = alarms[i];
          if (!a.armed || a.expiry != ticks) continue;
          any = true;
          if (a.cycle > 0) {
            a.expiry = ticks + a.cycle;
          } else {
            a.armed = false;
          }
          fired.emplace_back(origin + static_cast<std::int64_t>(ticks) * kTickUs,
                             i);
          if (i == 2 && !alarms[1].armed) alarms[1] = {true, ticks + 3, 0};
          if (i == 3 && alarms[0].armed) alarms[0].armed = false;
        }
        if (any) ++firing_ticks;
      }
    }
    [[nodiscard]] bool any_armed() const {
      for (const ModelAlarm& a : alarms) {
        if (a.armed) return true;
      }
      return false;
    }
  } model;

  kernel.start();
  model.started = true;
  for (int step = 0; step < 600; ++step) {
    const std::size_t pick = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(kAlarms) - 1));
    ModelAlarm& a = model.alarms[pick];
    switch (rng.uniform_int(0, 19)) {
      case 0:
      case 1:
      case 2:
      case 3:
      case 4:
      case 5: {
        const auto offset = static_cast<std::uint64_t>(rng.uniform_int(1, 30));
        const auto cycle = static_cast<std::uint64_t>(
            rng.uniform_int(0, 1) == 0 ? 0 : rng.uniform_int(1, 20));
        const os::Status expected =
            a.armed ? os::Status::kState : os::Status::kOk;
        if (!a.armed) a = {true, model.ticks + offset, cycle};
        ASSERT_EQ(kernel.set_rel_alarm(alarms[pick], offset, cycle), expected);
        break;
      }
      case 6:
      case 7:
      case 8: {
        const os::Status expected =
            a.armed ? os::Status::kOk : os::Status::kNoFunc;
        a.armed = false;
        ASSERT_EQ(kernel.cancel_alarm(alarms[pick]), expected);
        break;
      }
      case 9:
        if (model.started) {
          kernel.software_reset();
          model = Model{.fired = std::move(model.fired),
                        .firing_ticks = model.firing_ticks};
        } else {
          kernel.start();
          model.started = true;
          model.origin = engine.now().as_micros();
        }
        break;
      default:
        engine.run_until(engine.now() +
                         Duration::micros(rng.uniform_int(0, 15'000)));
        model.advance_to(engine.now().as_micros());
        break;
    }
    ASSERT_EQ(got, model.fired) << "step " << step;
    ASSERT_EQ(kernel.counter_ticks(counter), model.ticks % kModulo);
    for (std::size_t i = 0; i < kAlarms; ++i) {
      const ModelAlarm& m = model.alarms[i];
      ASSERT_EQ(kernel.alarm_armed(alarms[i]), m.armed);
      if (m.armed) {
        ASSERT_EQ(kernel.alarm_remaining_ticks(alarms[i]).value(),
                  m.expiry - model.ticks);
      }
    }
    // One engine event per tick that fires an alarm, at most one pending
    // per counter, and every other scheduled expiry was cancelled.
    ASSERT_EQ(engine.events_fired(), model.firing_ticks);
    ASSERT_EQ(engine.pending_events(),
              model.started && model.any_armed() ? 1u : 0u);
    ASSERT_EQ(engine.events_fired() + engine.pending_events() +
                  engine.events_cancelled(),
              engine.events_scheduled());
  }
  EXPECT_GT(model.fired.size(), 100u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TicklessCounter,
                         ::testing::Values(5u, 31u, 777u, 4096u, 123457u));

// --- engine firing order against a sorted reference queue ------------------------

// Random schedule_at/schedule_in/cancel/every/every_from/TimerGroup/run/step
// sequences must fire the same events in the same (time, priority,
// sequence) order as a reference queue kept sorted in the test, and agree
// on every id's is_pending and on the pending, scheduled, cancelled and
// fired counts after each operation. The reference numbers events by
// scheduling sequence; the test maps each sequence number to the id the
// engine issued for it (a series' queued firing through
// Timer::next_firing), and a number not issued yet to a forged id that
// must read not pending and fail to cancel. A fired or cancelled id keeps
// naming its settled event after the engine reuses its slot. When they
// fire, some one-shots cancel an event (their own, a series' queued firing
// or one not issued yet), cancel the whole group or schedule a child; some
// series stop themselves.
class EngineOrder : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EngineOrder, FiresLikeASortedQueue) {
  using sim::EventId;
  using Seq = std::uint64_t;  // the reference's name of an event; 0 = none
  util::Rng rng(GetParam());
  Engine engine;
  sim::TimerGroup group(engine);

  // One scheduled one-shot or series, named by its index (its tag).
  struct Item {
    bool series = false;
    std::int64_t period = 0;
    int priority = 0;
    Seq cancel = 0;                 // one-shot: cancel this event when fired
    bool cancel_group = false;      // one-shot: cancel_all when fired
    std::size_t child = 0;          // one-shot: schedule this tag when fired
    std::int64_t child_delay = 0;
    std::uint32_t stop_after = 0;   // series: stop itself at this firing
    std::uint32_t engine_firings = 0;
    sim::Timer timer;
    Seq requeued = 0;  // series: its firing queued after the last action
    // Reference side of a series.
    std::uint32_t model_firings = 0;
    bool live = false;
    bool stopped = false;
    Seq next = 0;  // queued firing; 0 while the action runs
  };
  std::vector<Item> items;

  struct Entry {
    std::int64_t at;
    int priority;
    Seq seq;
    std::size_t tag;
    auto operator<=>(const Entry&) const = default;
  };
  struct Model {
    std::int64_t now = 0;
    Seq next_seq = 1;
    std::uint64_t fired = 0;
    std::uint64_t cancelled = 0;
    std::vector<Entry> queue;  // sorted by (at, priority, seq)
    std::vector<Seq> group_events;
    std::vector<std::size_t> group_series;
  } model;

  using Firing = std::pair<std::int64_t, std::size_t>;  // (time us, tag)
  std::vector<Firing> got;
  std::vector<Firing> want;
  std::vector<bool> got_results;  // return values of in-action cancels
  std::vector<bool> want_results;

  // --- engine ids by sequence number ----------------------------------------
  std::vector<EventId> issued;   // index seq - 1; 0 while not issued
  std::set<EventId> issued_ids;  // every id issued so far
  auto record = [&](Seq seq, EventId id) {
    ASSERT_NE(id, EventId{0}) << "seq " << seq;
    ASSERT_TRUE(engine.is_pending(id)) << "seq " << seq;
    ASSERT_TRUE(issued_ids.insert(id).second) << "id issued twice: " << id;
    if (issued.size() < seq) issued.resize(seq, 0);
    issued[seq - 1] = id;
  };
  auto resolve = [&](Seq seq) -> EventId {
    if (seq == 0) return 0;
    if (seq <= issued.size() && issued[seq - 1] != 0) return issued[seq - 1];
    // Not issued yet: a value the engine has not issued.
    EventId forged = ~EventId{0} - seq;
    while (issued_ids.contains(forged)) --forged;
    return forged;
  };
  // Records the firing each series queued after its last action (the
  // engine queues it on the action's return, before any other event runs),
  // at the start of the next action and after each operation.
  std::vector<std::size_t> series_tags;
  auto harvest = [&] {
    for (const std::size_t tag : series_tags) {
      Item& item = items[tag];
      if (item.requeued == 0) continue;
      record(item.requeued, item.timer.next_firing());
      item.requeued = 0;
    }
  };

  // --- reference queue -------------------------------------------------------
  auto model_schedule = [&](std::size_t tag, std::int64_t at, int priority) {
    const Entry entry{at, priority, model.next_seq++, tag};
    model.queue.insert(
        std::upper_bound(model.queue.begin(), model.queue.end(), entry),
        entry);
    return entry.seq;
  };
  auto model_cancel = [&](Seq seq) {
    const auto it =
        std::find_if(model.queue.begin(), model.queue.end(),
                     [seq](const Entry& e) { return e.seq == seq; });
    if (it == model.queue.end()) return false;
    model.queue.erase(it);
    ++model.cancelled;
    return true;
  };
  auto model_stop = [&](std::size_t tag) {
    Item& item = items[tag];
    if (!item.live || item.stopped) return false;
    if (item.next == 0) {
      item.stopped = true;
    } else {
      model_cancel(item.next);
      item.live = false;
    }
    return true;
  };
  auto model_cancel_all = [&] {
    for (const Seq seq : model.group_events) model_cancel(seq);
    for (const std::size_t tag : model.group_series) model_stop(tag);
    model.group_events.clear();
    model.group_series.clear();
  };
  auto model_fire_front = [&] {
    const Entry entry = model.queue.front();
    model.queue.erase(model.queue.begin());
    model.now = entry.at;
    ++model.fired;
    want.emplace_back(entry.at, entry.tag);
    Item& item = items[entry.tag];
    if (item.series) {
      item.next = 0;
      if (++item.model_firings == item.stop_after) {
        want_results.push_back(model_stop(entry.tag));
      }
      if (item.stopped) {
        item.live = false;
      } else {
        item.next = model_schedule(entry.tag, model.now + item.period,
                                   item.priority);
      }
      return;
    }
    if (item.cancel != 0) want_results.push_back(model_cancel(item.cancel));
    if (item.cancel_group) model_cancel_all();
    if (item.child != 0) {
      model_schedule(item.child, model.now + item.child_delay,
                     items[item.child].priority);
    }
  };

  // --- engine actions --------------------------------------------------------
  std::function<void(std::size_t)> engine_fire = [&](std::size_t tag) {
    Item& item = items[tag];
    // A series firing that runs before any other event could name it is
    // settled now; its sequence number keeps resolving to a forged id.
    item.requeued = 0;
    harvest();
    got.emplace_back(engine.now().as_micros(), tag);
    if (item.series) {
      bool stopped = false;
      if (++item.engine_firings == item.stop_after) {
        stopped = item.timer.cancel();
        got_results.push_back(stopped);
      }
      // The action schedules nothing, so the next firing takes the next
      // sequence number.
      if (!stopped) item.requeued = engine.events_scheduled() + 1;
      return;
    }
    if (item.cancel != 0) {
      got_results.push_back(engine.cancel(resolve(item.cancel)));
    }
    if (item.cancel_group) group.cancel_all();
    if (item.child != 0) {
      const EventId id = engine.schedule_in(
          Duration::micros(item.child_delay),
          [&engine_fire, child = item.child] { engine_fire(child); },
          static_cast<sim::EventPriority>(items[item.child].priority));
      record(engine.events_scheduled(), id);
    }
  };

  items.emplace_back();  // tag 0 names no item
  auto new_one_shot = [&] {
    Item item;
    item.priority = static_cast<int>(rng.uniform_int(0, 3));
    if (rng.bernoulli(0.25)) {
      item.cancel = static_cast<Seq>(
          rng.uniform_int(1, static_cast<std::int64_t>(model.next_seq) + 3));
    }
    item.cancel_group = rng.bernoulli(0.05);
    items.push_back(item);
    const std::size_t tag = items.size() - 1;
    if (rng.bernoulli(0.2)) {
      Item child;
      child.priority = static_cast<int>(rng.uniform_int(0, 3));
      items.push_back(child);
      items[tag].child = items.size() - 1;
      items[tag].child_delay = rng.uniform_int(0, 3);
    }
    return tag;
  };

  for (int step = 0; step < 800; ++step) {
    switch (rng.uniform_int(0, 11)) {
      case 0:
      case 1:
      case 2: {
        const std::size_t tag = new_one_shot();
        const std::int64_t delay = rng.uniform_int(0, 50);
        const auto priority =
            static_cast<sim::EventPriority>(items[tag].priority);
        auto action = [&engine_fire, tag] { engine_fire(tag); };
        const bool absolute = rng.bernoulli(0.5);
        const EventId id =
            absolute ? engine.schedule_at(engine.now() + Duration::micros(delay),
                                          action, priority)
                     : engine.schedule_in(Duration::micros(delay), action,
                                          priority);
        const Seq seq =
            model_schedule(tag, model.now + delay, items[tag].priority);
        ASSERT_EQ(engine.events_scheduled(), seq);
        record(seq, id);
        if (rng.bernoulli(0.3)) {
          group.add(id);
          model.group_events.push_back(seq);
        }
        break;
      }
      case 3: {
        const auto seq = static_cast<Seq>(rng.uniform_int(
            0, static_cast<std::int64_t>(model.next_seq) + 1));
        ASSERT_EQ(engine.cancel(resolve(seq)), model_cancel(seq));
        break;
      }
      case 4: {
        Item item;
        item.series = true;
        item.period = rng.uniform_int(1, 20);
        item.priority = static_cast<int>(rng.uniform_int(0, 3));
        item.stop_after = static_cast<std::uint32_t>(rng.uniform_int(0, 6));
        item.live = true;
        items.push_back(item);
        const std::size_t tag = items.size() - 1;
        const auto priority = static_cast<sim::EventPriority>(item.priority);
        auto action = [&engine_fire, tag] { engine_fire(tag); };
        std::int64_t first = model.now + item.period;
        if (rng.bernoulli(0.5)) {
          items[tag].timer =
              engine.every(Duration::micros(item.period), action, priority);
        } else {
          first = model.now + rng.uniform_int(0, 20);
          items[tag].timer =
              engine.every_from(SimTime(first), Duration::micros(item.period),
                                action, priority);
        }
        items[tag].next = model_schedule(tag, first, item.priority);
        ASSERT_EQ(engine.events_scheduled(), items[tag].next);
        record(items[tag].next, items[tag].timer.next_firing());
        series_tags.push_back(tag);
        if (rng.bernoulli(0.3)) {
          group.add(items[tag].timer);
          model.group_series.push_back(tag);
        }
        break;
      }
      case 5: {
        std::vector<std::size_t> series;
        for (std::size_t tag = 1; tag < items.size(); ++tag) {
          if (items[tag].series) series.push_back(tag);
        }
        if (series.empty()) break;
        const std::size_t tag = series[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(series.size()) - 1))];
        ASSERT_EQ(items[tag].timer.cancel(), model_stop(tag));
        break;
      }
      case 6:
        group.cancel_all();
        model_cancel_all();
        break;
      case 7:
      case 8: {
        const bool fired = engine.step();
        ASSERT_EQ(fired, !model.queue.empty());
        if (fired) model_fire_front();
        break;
      }
      default: {
        const std::int64_t until = model.now + rng.uniform_int(0, 40);
        engine.run_until(SimTime(until));
        while (!model.queue.empty() && model.queue.front().at <= until) {
          model_fire_front();
        }
        model.now = std::max(model.now, until);
        break;
      }
    }
    harvest();
    ASSERT_EQ(got, want) << "step " << step;
    ASSERT_EQ(got_results, want_results) << "step " << step;
    ASSERT_EQ(engine.now().as_micros(), model.now);
    ASSERT_EQ(engine.pending_events(), model.queue.size());
    ASSERT_EQ(engine.events_scheduled(), model.next_seq - 1);
    ASSERT_EQ(engine.events_cancelled(), model.cancelled);
    ASSERT_EQ(engine.events_fired(), model.fired);
    for (Seq seq = 0; seq <= model.next_seq + 1; ++seq) {
      const bool queued =
          std::any_of(model.queue.begin(), model.queue.end(),
                      [seq](const Entry& e) { return e.seq == seq; });
      ASSERT_EQ(engine.is_pending(resolve(seq)), queued) << "seq " << seq;
    }
  }
  EXPECT_GT(want.size(), 300u);
  EXPECT_GT(model.cancelled, 10u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineOrder,
                         ::testing::Values(2u, 19u, 808u, 31337u, 271828u));

// --- TSI state roll-up against the full re-derive ------------------------------------

// The TSI's semantics as a full re-derive: on every report, clear and
// reset it rescans every runnable's vector, assigns every task, then
// every application, then the ECU state, in id order, and queues each
// change. Only the outermost call announces the queue, in order. A
// callback may clear a task; that derive assigns the states at once and
// queues its changes behind the ones still to be announced. A change to
// these semantics edits this reference on purpose.
class ReferenceTsi {
 public:
  using Thresholds = wdg::TaskStateIndicationUnit::Thresholds;
  using Health = wdg::Health;

  ReferenceTsi(Thresholds thresholds, std::uint32_t ecu_faulty_task_limit)
      : thresholds_(thresholds), ecu_faulty_task_limit_(ecu_faulty_task_limit) {}

  void add_runnable(RunnableId runnable, TaskId task, ApplicationId app) {
    elements_.emplace(runnable, Element{task, app, {}});
    order_.push_back(runnable);
    task_health_.try_emplace(task, Health::kOk);
    app_health_.try_emplace(app, Health::kOk);
  }
  void report_error(RunnableId runnable, wdg::ErrorType type, SimTime now) {
    auto it = elements_.find(runnable);
    if (it == elements_.end()) return;
    ++it->second.counts[static_cast<std::size_t>(type)];
    derive_states(now);
  }
  void clear_task(TaskId task, SimTime now) {
    for (RunnableId id : order_) {
      Element& e = elements_.at(id);
      if (e.task == task) e.counts.fill(0);
    }
    derive_states(now);
  }
  void reset(SimTime now) {
    for (RunnableId id : order_) elements_.at(id).counts.fill(0);
    derive_states(now);
  }
  [[nodiscard]] Health task_health(TaskId task) const {
    auto it = task_health_.find(task);
    return it == task_health_.end() ? Health::kOk : it->second;
  }
  [[nodiscard]] Health application_health(ApplicationId app) const {
    auto it = app_health_.find(app);
    return it == app_health_.end() ? Health::kOk : it->second;
  }
  [[nodiscard]] Health ecu_health() const { return ecu_health_; }
  [[nodiscard]] std::vector<TaskId> faulty_tasks() const {
    std::vector<TaskId> out;
    for (const auto& [task, health] : task_health_) {
      if (health == Health::kFaulty) out.push_back(task);
    }
    return out;
  }
  void set_task_state_callback(
      wdg::TaskStateIndicationUnit::TaskStateCallback cb) {
    task_cb_ = std::move(cb);
  }
  void set_application_state_callback(
      wdg::TaskStateIndicationUnit::ApplicationStateCallback cb) {
    app_cb_ = std::move(cb);
  }
  void set_ecu_state_callback(
      wdg::TaskStateIndicationUnit::EcuStateCallback cb) {
    ecu_cb_ = std::move(cb);
  }

 private:
  struct Element {
    TaskId task;
    ApplicationId application;
    std::array<std::uint32_t, wdg::kErrorTypeCount> counts{};
  };

  /// One queued announcement: 't'ask, 'a'pplication or 'e'cu.
  struct Change {
    char kind;
    std::uint32_t id;
    Health health;
    SimTime time;
  };

  void derive_states(SimTime now) {
    std::map<TaskId, Health> new_task;
    for (const auto& [task, health] : task_health_) new_task[task] = Health::kOk;
    std::map<ApplicationId, Health> new_app;
    for (const auto& [app, health] : app_health_) new_app[app] = Health::kOk;
    for (RunnableId id : order_) {
      const Element& e = elements_.at(id);
      for (std::size_t t = 0; t < wdg::kErrorTypeCount; ++t) {
        if (thresholds_.by_type[t] == 0) continue;
        if (e.counts[t] >= thresholds_.by_type[t]) {
          new_task[e.task] = Health::kFaulty;
          new_app[e.application] = Health::kFaulty;
        }
      }
    }
    std::uint32_t faulty_count = 0;
    for (const auto& [task, health] : new_task) {
      if (health == Health::kFaulty) ++faulty_count;
      if (task_health_.at(task) == health) continue;
      task_health_[task] = health;
      queue_.push_back({'t', task.value(), health, now});
    }
    for (const auto& [app, health] : new_app) {
      if (app_health_.at(app) == health) continue;
      app_health_[app] = health;
      queue_.push_back({'a', app.value(), health, now});
    }
    const Health new_ecu = faulty_count >= ecu_faulty_task_limit_
                               ? Health::kFaulty
                               : Health::kOk;
    if (new_ecu != ecu_health_) {
      ecu_health_ = new_ecu;
      queue_.push_back({'e', 0, new_ecu, now});
    }
    if (dispatching_) return;
    dispatching_ = true;
    for (std::size_t i = 0; i < queue_.size(); ++i) {
      const Change c = queue_[i];
      if (c.kind == 't' && task_cb_) task_cb_(TaskId(c.id), c.health, c.time);
      if (c.kind == 'a' && app_cb_) {
        app_cb_(ApplicationId(c.id), c.health, c.time);
      }
      if (c.kind == 'e' && ecu_cb_) ecu_cb_(c.health, c.time);
    }
    queue_.clear();
    dispatching_ = false;
  }

  Thresholds thresholds_;
  std::uint32_t ecu_faulty_task_limit_;
  std::unordered_map<RunnableId, Element> elements_;
  std::vector<RunnableId> order_;
  std::map<TaskId, Health> task_health_;
  std::map<ApplicationId, Health> app_health_;
  Health ecu_health_ = Health::kOk;
  std::vector<Change> queue_;
  bool dispatching_ = false;
  wdg::TaskStateIndicationUnit::TaskStateCallback task_cb_;
  wdg::TaskStateIndicationUnit::ApplicationStateCallback app_cb_;
  wdg::TaskStateIndicationUnit::EcuStateCallback ecu_cb_;
};

/// One announced state change: 't'ask, 'a'pplication or 'e'cu.
struct Transition {
  char kind;
  std::uint32_t id;
  wdg::Health health;
  std::int64_t time;
  bool operator==(const Transition&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Transition& t) {
  return os << t.kind << t.id << '=' << wdg::to_string(t.health) << '@'
            << t.time;
}

/// A TSI (the unit or the reference) whose callbacks log each transition
/// and sometimes treat it re-entrantly, as FMF does: a faulty task has one
/// task cleared (itself or another), a faulty application has each of its
/// tasks cleared, a faulty ECU is reset. What to treat is a hash of the
/// log length and the id, so two TSIs that announce the same sequence
/// treat it the same way.
template <typename Tsi>
struct TreatedTsi {
  TreatedTsi(const typename ReferenceTsi::Thresholds& thresholds,
             std::uint32_t ecu_limit,
             const std::map<ApplicationId, std::vector<TaskId>>& tasks_of,
             std::uint64_t salt)
      : tsi(thresholds, ecu_limit), tasks_of(tasks_of), salt(salt) {
    for (const auto& [app, tasks] : tasks_of) {
      all_tasks.insert(all_tasks.end(), tasks.begin(), tasks.end());
    }
    tsi.set_task_state_callback([this](TaskId task, wdg::Health h,
                                       SimTime now) {
      log.push_back({'t', task.value(), h, now.as_micros()});
      if (treat(h, task.value())) {
        const std::uint64_t pick = hash(task.value()) % all_tasks.size();
        ++depth;
        tsi.clear_task(all_tasks[pick], now);
        --depth;
      }
    });
    tsi.set_application_state_callback([this](ApplicationId app,
                                              wdg::Health h, SimTime now) {
      log.push_back({'a', app.value(), h, now.as_micros()});
      if (treat(h, app.value())) {
        ++depth;
        for (const TaskId task : this->tasks_of.at(app)) {
          tsi.clear_task(task, now);
        }
        --depth;
      }
    });
    tsi.set_ecu_state_callback([this](wdg::Health h, SimTime now) {
      log.push_back({'e', 0, h, now.as_micros()});
      if (treat(h, 0)) {
        ++depth;
        tsi.reset(now);
        --depth;
      }
    });
  }
  TreatedTsi(const TreatedTsi&) = delete;
  TreatedTsi& operator=(const TreatedTsi&) = delete;

  [[nodiscard]] std::uint64_t hash(std::uint64_t id) const {
    return util::splitmix64(salt ^ (log.size() << 8) ^ id);
  }
  bool treat(wdg::Health h, std::uint64_t id) {
    if (h != wdg::Health::kFaulty || depth >= 3) return false;
    const bool yes = hash(id + 1) % 3 == 0;
    treated += yes ? 1 : 0;
    return yes;
  }

  Tsi tsi;
  const std::map<ApplicationId, std::vector<TaskId>>& tasks_of;
  std::vector<TaskId> all_tasks;
  std::uint64_t salt;
  std::vector<Transition> log;
  int depth = 0;
  int treated = 0;
};

// Random report/clear/reset sequences over 2-4 applications and 2-6 tasks,
// with random per-type thresholds (zero disables a type), must leave the
// incremental TSI in the same task, application and ECU states as the full
// re-derive after every operation, having announced the same transitions
// in the same order, with callbacks that treat some of them re-entrantly.
class TsiDerive : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TsiDerive, MatchesTheFullRederive) {
  util::Rng rng(GetParam());
  const auto app_count = static_cast<std::uint32_t>(rng.uniform_int(2, 4));
  const auto task_count = static_cast<std::uint32_t>(rng.uniform_int(2, 6));
  ReferenceTsi::Thresholds thresholds;
  for (std::uint32_t& t : thresholds.by_type) {
    t = static_cast<std::uint32_t>(rng.uniform_int(0, 4));
  }
  const auto ecu_limit =
      static_cast<std::uint32_t>(rng.uniform_int(1, task_count));

  // Sparse ids, registered out of id order (t and a are at most 6 and 4).
  auto task_id = [](std::uint32_t t) { return TaskId(7 + 13 * (5 * t % 7)); };
  auto app_id = [](std::uint32_t a) {
    return ApplicationId(100 + 29 * (3 * a % 5));
  };
  std::vector<ApplicationId> app_of_task;
  std::map<ApplicationId, std::vector<TaskId>> tasks_of;
  for (std::uint32_t a = 0; a < app_count; ++a) tasks_of[app_id(a)];
  for (std::uint32_t t = 0; t < task_count; ++t) {
    const ApplicationId app =
        app_id(t < app_count ? t : static_cast<std::uint32_t>(
                                        rng.uniform_int(0, app_count - 1)));
    app_of_task.push_back(app);
    tasks_of[app].push_back(task_id(t));
  }

  const std::uint64_t salt = util::splitmix64(GetParam());
  TreatedTsi<wdg::TaskStateIndicationUnit> unit(thresholds, ecu_limit,
                                                tasks_of, salt);
  TreatedTsi<ReferenceTsi> ref(thresholds, ecu_limit, tasks_of, salt);

  // Every task has a runnable; some tasks more. A few runnables name an
  // application other than their task's.
  const auto runnable_count = static_cast<std::uint32_t>(
      rng.uniform_int(task_count, 3 * task_count));
  for (std::uint32_t r = 0; r < runnable_count; ++r) {
    const std::uint32_t t =
        r < task_count ? r
                       : static_cast<std::uint32_t>(
                             rng.uniform_int(0, task_count - 1));
    const ApplicationId app =
        rng.bernoulli(0.15)
            ? app_id(static_cast<std::uint32_t>(
                  rng.uniform_int(0, app_count - 1)))
            : app_of_task[t];
    unit.tsi.add_runnable(RunnableId(3 + 5 * r), task_id(t), app);
    ref.tsi.add_runnable(RunnableId(3 + 5 * r), task_id(t), app);
  }

  std::int64_t now = 0;
  for (int step = 0; step < 1000; ++step) {
    now += rng.uniform_int(0, 1000);
    const std::int64_t op = rng.uniform_int(0, 19);
    if (op < 15) {
      // One id past the last runnable is unknown and ignored.
      const RunnableId runnable(
          3 + 5 * static_cast<std::uint32_t>(
                      rng.uniform_int(0, runnable_count)));
      const auto type = static_cast<wdg::ErrorType>(
          rng.uniform_int(0, wdg::kErrorTypeCount - 1));
      unit.tsi.report_error(runnable, type, SimTime(now));
      ref.tsi.report_error(runnable, type, SimTime(now));
    } else if (op < 19) {
      const TaskId task =
          task_id(static_cast<std::uint32_t>(rng.uniform_int(0, task_count)));
      unit.tsi.clear_task(task, SimTime(now));
      ref.tsi.clear_task(task, SimTime(now));
    } else {
      unit.tsi.reset(SimTime(now));
      ref.tsi.reset(SimTime(now));
    }
    ASSERT_EQ(unit.log, ref.log) << "step " << step;
    ASSERT_EQ(unit.tsi.ecu_health(), ref.tsi.ecu_health()) << "step " << step;
    ASSERT_EQ(unit.tsi.faulty_tasks(), ref.tsi.faulty_tasks());
    for (std::uint32_t t = 0; t <= task_count; ++t) {
      ASSERT_EQ(unit.tsi.task_health(task_id(t)),
                ref.tsi.task_health(task_id(t)));
    }
    for (std::uint32_t a = 0; a <= app_count; ++a) {
      ASSERT_EQ(unit.tsi.application_health(app_id(a)),
                ref.tsi.application_health(app_id(a)));
    }
  }
  EXPECT_GT(unit.log.size(), 20u);
  EXPECT_GT(unit.treated, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TsiDerive,
                         ::testing::Values(1u, 8u, 64u, 4242u, 99991u, 314159u,
                                           2718281u, 16180339u));

// --- PFC: no false positives on random valid walks -------------------------------------

class PfcRandomWalk : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PfcRandomWalk, ValidWalksNeverFlagged) {
  util::Rng rng(GetParam());
  wdg::ProgramFlowCheckingUnit pfc;
  const int nodes = 8;
  std::map<int, std::vector<int>> successors;
  for (int i = 0; i < nodes; ++i) {
    pfc.add_monitored(RunnableId(static_cast<std::uint32_t>(i)), TaskId(0));
  }
  // Random graph: every node gets 1..3 successors.
  for (int i = 0; i < nodes; ++i) {
    const int fanout = static_cast<int>(rng.uniform_int(1, 3));
    for (int k = 0; k < fanout; ++k) {
      const int succ = static_cast<int>(rng.uniform_int(0, nodes - 1));
      successors[i].push_back(succ);
      pfc.add_edge(RunnableId(static_cast<std::uint32_t>(i)),
                   RunnableId(static_cast<std::uint32_t>(succ)));
    }
  }
  const int entry = static_cast<int>(rng.uniform_int(0, nodes - 1));
  pfc.add_entry_point(RunnableId(static_cast<std::uint32_t>(entry)));

  int errors = 0;
  auto on_error = [&](RunnableId, RunnableId, TaskId, SimTime) { ++errors; };

  // 50 jobs of random valid walks.
  for (int job = 0; job < 50; ++job) {
    int current = entry;
    pfc.on_execution(RunnableId(static_cast<std::uint32_t>(current)),
                     TaskId(0), SimTime(0), on_error);
    const int steps = static_cast<int>(rng.uniform_int(1, 20));
    for (int s = 0; s < steps; ++s) {
      const auto& succ = successors[current];
      current = succ[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(succ.size()) - 1))];
      pfc.on_execution(RunnableId(static_cast<std::uint32_t>(current)),
                       TaskId(0), SimTime(0), on_error);
    }
    pfc.task_boundary(TaskId(0));
  }
  EXPECT_EQ(errors, 0);
}

TEST_P(PfcRandomWalk, CorruptedStepAlwaysFlagged) {
  util::Rng rng(GetParam());
  wdg::ProgramFlowCheckingUnit pfc;
  // Chain 0 -> 1 -> 2 -> 3 -> 4; corruption jumps backwards or skips.
  const int nodes = 5;
  for (int i = 0; i < nodes; ++i) {
    pfc.add_monitored(RunnableId(static_cast<std::uint32_t>(i)), TaskId(0));
    if (i > 0) {
      pfc.add_edge(RunnableId(static_cast<std::uint32_t>(i - 1)),
                   RunnableId(static_cast<std::uint32_t>(i)));
    }
  }
  pfc.add_entry_point(RunnableId(0));

  for (int trial = 0; trial < 20; ++trial) {
    int errors = 0;
    auto on_error = [&](RunnableId, RunnableId, TaskId, SimTime) { ++errors; };
    const int corrupt_at = static_cast<int>(rng.uniform_int(1, nodes - 1));
    int wrong = static_cast<int>(rng.uniform_int(0, nodes - 1));
    if (wrong == corrupt_at) wrong = (wrong + 2) % nodes;  // ensure invalid
    for (int i = 0; i < nodes; ++i) {
      const int executed = (i == corrupt_at) ? wrong : i;
      pfc.on_execution(RunnableId(static_cast<std::uint32_t>(executed)),
                       TaskId(0), SimTime(0), on_error);
    }
    pfc.task_boundary(TaskId(0));
    EXPECT_GE(errors, 1) << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PfcRandomWalk,
                         ::testing::Values(3u, 17u, 71u, 301u));

// --- full-node determinism ----------------------------------------------------------------

TEST(NodeDeterminism, IdenticalRunsProduceIdenticalState) {
  auto run = [] {
    Engine engine;
    validator::CentralNode node(engine);
    node.start();
    node.signals().publish("driver.demand", 0.7, engine.now());
    engine.run_until(SimTime(5'000'000));
    return std::make_tuple(
        node.vehicle().speed_kmh(),
        node.rte().executions(node.safespeed().get_sensor_value()),
        node.watchdog().cycles_run(), engine.events_fired());
  };
  EXPECT_EQ(run(), run());
}

// --- watchdog detection-threshold sweep: injected frequency scaling -----------------------

struct SliderParam {
  double factor;
  bool expect_aliveness;
  bool expect_arrival;
  std::array<std::uint8_t, 6> zero_fill{};  // see TaskSetParam
};

class SliderSweep : public ::testing::TestWithParam<SliderParam> {};

// The ControlDesk "slider" scales the SafeSpeed activation period. The
// fault hypothesis tolerates one missing/extra activation per window, so
// moderate scaling stays silent while strong scaling is detected.
TEST_P(SliderSweep, DetectionMatchesHypothesis) {
  const SliderParam param = GetParam();
  Engine engine;
  validator::CentralNodeConfig config;
  config.with_fmf = false;
  validator::CentralNode node(engine, config);
  std::vector<wdg::ErrorReport> errors;
  node.watchdog().add_error_listener(
      [&](const wdg::ErrorReport& r) { errors.push_back(r); });
  node.start();

  inject::ErrorInjector injector(engine);
  injector.add(inject::make_period_scale(
      node.kernel(), node.safespeed_alarm(), node.safespeed_period_ticks(),
      param.factor, SimTime(500'000), Duration::zero()));
  injector.arm();
  engine.run_until(SimTime(4'000'000));

  int aliveness = 0, arrival = 0;
  for (const auto& e : errors) {
    if (e.type == wdg::ErrorType::kAliveness) ++aliveness;
    if (e.type == wdg::ErrorType::kArrivalRate) ++arrival;
  }
  EXPECT_EQ(aliveness > 0, param.expect_aliveness)
      << "factor " << param.factor;
  EXPECT_EQ(arrival > 0, param.expect_arrival) << "factor " << param.factor;
}

INSTANTIATE_TEST_SUITE_P(
    Factors, SliderSweep,
    ::testing::Values(SliderParam{1.0, false, false},
                      SliderParam{4.0, true, false},
                      SliderParam{8.0, true, false},
                      SliderParam{0.25, false, true}));

// --- watchdog soundness & completeness on random platforms -----------------------

struct PlatformParam {
  std::int64_t tasks;  // see TaskSetParam
  std::uint64_t seed;
};

class RandomPlatform : public ::testing::TestWithParam<PlatformParam> {
 protected:
  struct Built {
    std::unique_ptr<os::Kernel> kernel;
    std::unique_ptr<rte::Rte> rte;
    std::unique_ptr<wdg::SoftwareWatchdog> watchdog;
    std::unique_ptr<wdg::WatchdogService> service;
    std::vector<RunnableId> runnables;
    std::vector<sim::Duration> periods;
  };

  /// Builds a random healthy platform: `tasks` periodic tasks with 1..3
  /// runnables each, monitors derived from the actual periods.
  Built build(Engine& engine, util::Rng& rng, std::int64_t tasks) {
    Built b;
    b.kernel = std::make_unique<os::Kernel>(engine);
    b.rte = std::make_unique<rte::Rte>(*b.kernel);
    wdg::WatchdogConfig config;
    config.check_period = Duration::millis(10);
    b.watchdog = std::make_unique<wdg::SoftwareWatchdog>(config);

    const CounterId counter = b.kernel->create_counter(
        {.name = "sys", .tick = Duration::millis(1)});
    const ApplicationId app = b.rte->register_application("Random");
    const ComponentId comp = b.rte->register_component(app, "C");

    std::vector<std::pair<AlarmId, std::uint64_t>> alarms;
    for (int t = 0; t < tasks; ++t) {
      os::TaskConfig tc;
      tc.name = std::string("t").append(std::to_string(t));
      tc.priority = t;
      const TaskId task = b.kernel->create_task(tc);
      const auto period_ms =
          static_cast<std::uint64_t>(rng.uniform_int(1, 10)) * 10;
      const sim::Duration period = Duration::millis(
          static_cast<std::int64_t>(period_ms));
      const int runnable_count = static_cast<int>(rng.uniform_int(1, 3));
      for (int r = 0; r < runnable_count; ++r) {
        rte::RunnableSpec spec;
        spec.name = std::string("t")
                        .append(std::to_string(t))
                        .append("_r")
                        .append(std::to_string(r));
        spec.execution_time =
            Duration::micros(rng.uniform_int(20, 500));
        const RunnableId id = b.rte->register_runnable(comp, spec);
        b.rte->map_runnable(id, task);
        b.watchdog->add_runnable(apps::derive_monitor(
            id, task, app, spec.name, period, config.check_period,
            /*program_flow=*/false));
        b.runnables.push_back(id);
        b.periods.push_back(period);
      }
      const AlarmId alarm = b.kernel->create_alarm(
          counter, os::AlarmActionActivateTask{task});
      alarms.emplace_back(alarm, period_ms);
    }

    b.service = std::make_unique<wdg::WatchdogService>(
        *b.kernel, *b.rte, *b.watchdog, counter);
    b.rte->finalize();
    b.kernel->start();
    b.service->arm();
    for (const auto& [alarm, period_ms] : alarms) {
      b.kernel->set_rel_alarm(alarm, period_ms, period_ms);
    }
    return b;
  }
};

// Soundness: a healthy random platform with hypotheses derived from the
// real periods produces zero watchdog errors (no false positives).
TEST_P(RandomPlatform, HealthyPlatformsNeverFlagged) {
  const auto [tasks, seed] = GetParam();
  Engine engine;
  util::Rng rng(seed);
  Built b = build(engine, rng, tasks);
  int errors = 0;
  b.watchdog->add_error_listener(
      [&](const wdg::ErrorReport&) { ++errors; });
  engine.run_until(SimTime(5'000'000));
  EXPECT_EQ(errors, 0) << "false positives on a healthy platform";
  EXPECT_GT(b.watchdog->cycles_run(), 400u);
  // The derived configuration also passes the static checker.
  std::size_t idx = 0;
  const auto findings = wdg::ConfigChecker::check(
      *b.watchdog, [&](RunnableId id) {
        for (std::size_t i = 0; i < b.runnables.size(); ++i) {
          if (b.runnables[i] == id) return b.periods[i];
        }
        (void)idx;
        return Duration::zero();
      });
  EXPECT_TRUE(wdg::ConfigChecker::acceptable(findings));
}

// Completeness: dropping a random runnable is always detected, within the
// hypothesis window bound (aliveness_cycles x check period x 2 for phase).
TEST_P(RandomPlatform, RandomDropAlwaysDetectedWithinBound) {
  const auto [tasks, seed] = GetParam();
  Engine engine;
  util::Rng rng(seed ^ 0xD00D);
  Built b = build(engine, rng, tasks);

  const std::size_t victim_index = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(b.runnables.size()) - 1));
  const RunnableId victim = b.runnables[victim_index];

  std::optional<SimTime> detected;
  b.watchdog->add_error_listener([&](const wdg::ErrorReport& report) {
    if (report.runnable == victim &&
        report.type == wdg::ErrorType::kAliveness && !detected) {
      detected = report.time;
    }
  });

  const SimTime inject_at(2'000'000 +
                          rng.uniform_int(0, 100) * 1'000);
  engine.schedule_at(inject_at, [&] {
    b.rte->control(victim).repeat = 0;  // drop from all future jobs
  });
  engine.run_until(SimTime(10'000'000));

  ASSERT_TRUE(detected.has_value()) << "drop was never detected";
  const auto window_us =
      static_cast<std::int64_t>(
          b.watchdog->heartbeat_unit().config(victim).aliveness_cycles) *
      10'000;
  EXPECT_LE((*detected - inject_at).as_micros(), 2 * window_us + 20'000)
      << "detection later than the hypothesis bound";
}

INSTANTIATE_TEST_SUITE_P(
    Platforms, RandomPlatform,
    ::testing::Values(PlatformParam{1, 101}, PlatformParam{3, 202},
                      PlatformParam{5, 303}, PlatformParam{8, 404},
                      PlatformParam{12, 505}));

}  // namespace
}  // namespace easis
