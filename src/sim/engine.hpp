// Discrete-event simulation engine.
//
// Single-threaded, deterministic: events fire in (time, priority, insertion
// sequence) order so the same configuration always produces the same trace —
// the property that lets the bench binaries regenerate the paper's figures
// bit-for-bit.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/time.hpp"

namespace easis::sim {

/// Names one scheduled event. Opaque: it packs the event's slot and that
/// slot's 32-bit generation, which advances whenever the slot's event
/// fires or is cancelled. So a fired or cancelled id never names the new
/// event its slot holds, and no id is 0 ("none"), until that one slot has
/// been reused 2^32 times: generations start at 1.
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
  /// The id of the series' queued firing; 0 while none is queued (its
  /// action runs, or it was stopped). Cancelling that id skips the firing
  /// and leaves the series dormant: it fires no more, and the next
  /// cancel() still returns true.
  [[nodiscard]] EventId next_firing() const;

 private:
  friend class Engine;
  Timer(Engine* engine, std::uint32_t slot, std::uint32_t serial)
      : engine_(engine), slot_(slot), serial_(serial) {}
  Engine* engine_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t serial_ = 0;  // the slot's gen at the series' first firing
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

  [[nodiscard]] std::size_t pending_events() const {
    return heap_.size() - cancelled_queued_;
  }
  [[nodiscard]] std::uint64_t events_fired() const { return fired_; }
  /// Events ever scheduled and ever cancelled: every scheduled event has
  /// fired, is pending or was cancelled.
  [[nodiscard]] std::uint64_t events_scheduled() const { return scheduled_; }
  [[nodiscard]] std::uint64_t events_cancelled() const { return cancelled_; }

 private:
  friend class Timer;

  /// A queued event, ordered by (at, order): `order` packs the priority
  /// above the insertion sequence, so one integer compare settles both
  /// tie-breaks, and a heap sift moves only these trivially copyable keys.
  /// A key whose `gen` is no longer its slot's was cancelled.
  struct Key {
    SimTime at;
    std::uint64_t order;  // priority << kSeqBits | sequence
    std::uint32_t slot;
    std::uint32_t gen;
  };
  static constexpr unsigned kSeqBits = 60;
  /// Heap order: the key that fires later sorts lower, so the heap's front
  /// is the next event. A closure, not a function, so that every heap sift
  /// inlines the compare instead of calling through a function pointer.
  static constexpr auto fires_later = [](const Key& a, const Key& b) {
    return a.at != b.at ? a.at > b.at : a.order > b.order;
  };

  /// kRunning: a series running its action. kDormant: a series whose
  /// queued firing was cancelled by id.
  enum class SlotState : std::uint8_t { kFree, kQueued, kRunning, kDormant };
  /// One live event: a one-shot (period zero) until it fires or is
  /// cancelled, or a series until it is stopped. Settled slots are reused,
  /// so slots_ is bounded by the peak number of live events, and heap_ by
  /// that plus the cancelled keys not yet due.
  struct Slot {
    Action action;
    Duration period;
    std::uint32_t gen = 1;
    std::uint32_t serial = 0;  // series: first firing's gen; 0 once stopped
    EventPriority priority = EventPriority::kDefault;
    SlotState state = SlotState::kFree;
  };

  std::vector<Key> heap_;  // binary min-heap on (at, order)
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  /// Cancelled keys still sitting in the heap (skipped when popped).
  std::size_t cancelled_queued_ = 0;
  SimTime now_;
  std::uint64_t scheduled_ = 0;
  std::uint64_t fired_ = 0;
  std::uint64_t cancelled_ = 0;

  /// Puts `action` in a free slot and queues it at `at`; returns the slot.
  std::uint32_t add(SimTime at, Action&& action, Duration period,
                    EventPriority priority);
  void enqueue(std::uint32_t slot, SimTime at);  // with the next sequence
  void release(std::uint32_t slot);
  /// Pops cancelled keys off the heap's front; true if a live one is left.
  bool live_front();
  /// Pops and runs the heap's front, which must be live.
  void fire_top();
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
    return events_.size() + timers_.size();
  }

 private:
  static constexpr std::size_t kMinPrune = 64;
  Engine& engine_;
  std::vector<EventId> events_;
  std::vector<Timer> timers_;
  std::size_t prune_at_ = kMinPrune;
};

}  // namespace easis::sim
