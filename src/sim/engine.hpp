// Discrete-event simulation engine.
//
// Single-threaded, deterministic: events fire in (time, priority, insertion
// sequence) order so the same configuration always produces the same trace —
// the property that lets the bench binaries regenerate the paper's figures
// bit-for-bit.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "sim/time.hpp"

namespace easis::sim {

using EventId = std::uint64_t;

/// Scheduling priority of a simultaneous event; lower value fires first.
/// The OS kernel schedules alarm expiries at kKernel and segment
/// completions at kDispatch, so both run before user callbacks scheduled
/// at the same instant.
enum class EventPriority : int {
  kKernel = 0,
  kDispatch = 1,
  kDefault = 2,
  kMonitor = 3,
};

class Engine;

/// Handle to a series started by Engine::every. A plain value: copies name
/// the same series, and dropping a handle leaves the series running.
class Timer {
 public:
  Timer() = default;
  /// Stops the series, also from inside its own action (the current firing
  /// completes, no further one is scheduled). Returns false if the series
  /// was already stopped or the handle names none.
  bool cancel();

 private:
  friend class Engine;
  Timer(Engine* engine, std::uint64_t series)
      : engine_(engine), series_(series) {}
  Engine* engine_ = nullptr;
  std::uint64_t series_ = 0;
};

class Engine {
 public:
  using Action = std::function<void()>;

  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedules `action` to run at absolute time `at` (must be >= now()).
  EventId schedule_at(SimTime at, Action action,
                      EventPriority priority = EventPriority::kDefault);

  /// Schedules `action` to run `delay` from now.
  EventId schedule_in(Duration delay, Action action,
                      EventPriority priority = EventPriority::kDefault);

  /// Runs `action` every `period`, first at now() + period, until the
  /// returned handle is cancelled. Each firing runs `action` and then
  /// schedules the next one, so an event `action` schedules for the next
  /// firing's instant fires before it.
  Timer every(Duration period, Action action,
              EventPriority priority = EventPriority::kDefault);
  /// As every(), but the first firing is at `first` (must be >= now()).
  Timer every_from(SimTime first, Duration period, Action action,
                   EventPriority priority = EventPriority::kDefault);

  /// Cancels a pending event. Returns false (and changes nothing) if the
  /// id is unknown, already fired or already cancelled.
  bool cancel(EventId id);

  /// True while `id` is scheduled: neither fired nor cancelled.
  [[nodiscard]] bool is_pending(EventId id) const;

  /// Runs the next event. Returns false if the queue is empty.
  bool step();

  /// Runs all events up to and including time `until`.
  void run_until(SimTime until);

  /// Runs for `d` from the current time.
  void run_for(Duration d) { run_until(now_ + d); }

  /// Drains the whole queue (use only in tests with finite event sets).
  void run_all();

  [[nodiscard]] std::size_t pending_events() const;
  [[nodiscard]] std::uint64_t events_fired() const { return fired_; }
  /// Events ever scheduled and ever cancelled: every scheduled event has
  /// fired, is pending or was cancelled.
  [[nodiscard]] std::uint64_t events_scheduled() const { return next_id_ - 1; }
  [[nodiscard]] std::uint64_t events_cancelled() const { return cancelled_; }

 private:
  friend class Timer;

  /// A queued event, ordered by (at, order): `order` packs the priority
  /// above the id, so one integer compare settles both tie-breaks. The
  /// action lives apart in actions_[slot], so a heap sift moves only
  /// these trivially copyable keys.
  struct Key {
    SimTime at;
    std::uint64_t order;  // priority << kIdBits | id
    std::uint32_t slot;
  };
  static constexpr unsigned kIdBits = 60;
  static constexpr std::uint64_t kIdMask = (std::uint64_t{1} << kIdBits) - 1;
  /// Heap order: the key that fires later sorts lower, so the heap's front
  /// is the next event.
  static bool fires_later(const Key& a, const Key& b) {
    return a.at != b.at ? a.at > b.at : a.order > b.order;
  }

  /// Binary min-heap on (at, order); ids are unique, so the pop sequence is
  /// fully determined.
  std::vector<Key> heap_;
  /// The action of each queued key; a slot is reused (free_slots_) once its
  /// key is popped, whether it fires or was cancelled.
  std::vector<Action> actions_;
  std::vector<std::uint32_t> free_slots_;
  /// Per id (index id - 1): fired or cancelled. Ids are sequential, so a
  /// dense bit per scheduled event holds the state without hashing.
  std::vector<bool> settled_;
  /// Cancelled events still sitting in the heap (skipped when popped).
  std::size_t cancelled_queued_ = 0;
  SimTime now_;
  EventId next_id_ = 1;
  std::uint64_t fired_ = 0;
  std::uint64_t cancelled_ = 0;

  struct Series {
    std::uint64_t key;
    Duration period;
    EventPriority priority;
    Action action;
    EventId next = 0;  // the queued firing; 0 while `action` runs
    bool stopped = false;
  };
  /// Live series by key. Keys are never reused, so a handle to a stopped
  /// series stays harmless; node-based storage keeps each Series in place
  /// while its queued firing points at it.
  std::unordered_map<std::uint64_t, Series> series_;
  std::uint64_t next_series_ = 1;

  void schedule_series(Series& series, SimTime at);
  void fire_series(Series& series);
  bool cancel_series(std::uint64_t key);

  bool fire_next();
  /// Removes the heap head and frees its slot; returns its key.
  Key pop_top();
  /// Pops and runs the heap head, which must not be cancelled.
  void fire_top();
  /// Pops the heap head if it was cancelled; true if it did.
  bool drop_cancelled_top();
};

/// Everything one owner scheduled, cancelled in one call: a node adds the
/// one-shots and series of its current boot and drops them all on reset.
/// Fired one-shots are pruned as the group grows, so its size stays
/// proportional to what is still pending.
class TimerGroup {
 public:
  explicit TimerGroup(Engine& engine) : engine_(engine) {}

  void add(EventId id);
  void add(Timer timer);
  /// Cancels every pending one-shot and stops every series of the group.
  void cancel_all();
  [[nodiscard]] std::size_t size() const {
    return events_.size() + series_.size();
  }

 private:
  static constexpr std::size_t kMinPrune = 64;
  Engine& engine_;
  std::vector<EventId> events_;
  std::vector<Timer> series_;
  std::size_t prune_at_ = kMinPrune;
};

}  // namespace easis::sim
