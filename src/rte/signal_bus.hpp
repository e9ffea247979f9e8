// Sender-receiver communication (last-is-best semantics).
//
// Models the RTE's sender-receiver ports between runnables and the
// data path towards sensors/actuators and the communication gateway.
// Signals are named doubles with update metadata. Names are looked up as
// std::string_view through a transparent hash, so a lookup builds no
// temporary string; a name is copied once, when its signal is created.
//
// Signals crossing the vehicle network additionally carry a *qualifier*:
// a receiver registers a ReceptionPolicy (deadline + substitute-value
// rule), after which read_qualified() classifies the signal as kValid,
// kTimeout (deadline exceeded since the last good update) or kInvalid
// (the protection layer rejected the latest data), and substitutes a safe
// value per policy instead of handing out stale or damaged data.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "sim/time.hpp"

namespace easis::rte {

enum class SignalQualifier : std::uint8_t {
  kValid = 0,
  kTimeout,  // no (accepted) update within the reception deadline
  kInvalid,  // latest reception was rejected (e.g. failed E2E check)
};

[[nodiscard]] const char* to_string(SignalQualifier qualifier);

/// What a degraded signal reads as.
enum class SubstitutePolicy : std::uint8_t {
  kHoldLast = 0,  // keep the last good value (tolerate brief dropouts)
  kDefault,       // fall back to the configured default
  kLimp,          // conservative limp-home value (safety signals)
};

struct ReceptionPolicy {
  /// Maximum age of the last good update; zero disables the deadline.
  sim::Duration deadline = sim::Duration::zero();
  SubstitutePolicy substitute = SubstitutePolicy::kHoldLast;
  /// Value substituted under SubstitutePolicy::kDefault.
  double default_value = 0.0;
  /// Value substituted under SubstitutePolicy::kLimp.
  double limp_value = 0.0;
};

class SignalBus {
 public:
  struct Entry {
    double value = 0.0;
    sim::SimTime updated_at;
    std::uint64_t updates = 0;
    /// Latest reception was rejected by the protection layer.
    bool invalid = false;
  };

  struct QualifiedValue {
    double value = 0.0;
    SignalQualifier qualifier = SignalQualifier::kValid;
  };

  using Observer =
      std::function<void(const std::string&, double, sim::SimTime)>;

  /// Writes a signal (creates it on first write); clears kInvalid.
  void publish(std::string_view name, double value, sim::SimTime at);

  /// Marks the signal invalid (its producer received damaged data) without
  /// touching the last good value. Cleared by the next publish.
  void invalidate(std::string_view name, sim::SimTime at);

  /// Registers the receiver-side policy; the deadline is armed from `now`
  /// so a signal that never arrives at all still times out.
  void set_reception_policy(std::string_view name, ReceptionPolicy policy,
                            sim::SimTime now);
  [[nodiscard]] std::optional<ReceptionPolicy> reception_policy(
      std::string_view name) const;

  /// Classifies the signal at time `now` against its reception policy.
  /// Signals without a policy are kValid whenever they exist.
  [[nodiscard]] SignalQualifier qualifier(std::string_view name,
                                          sim::SimTime now) const;

  /// Policy-aware read: a kValid signal reads as its value; a degraded one
  /// reads as the substitute the policy prescribes. `fallback` covers
  /// signals that never arrived and hold-last with no last value.
  [[nodiscard]] QualifiedValue read_qualified(std::string_view name,
                                              sim::SimTime now,
                                              double fallback) const;

  /// Last written value, if the signal exists.
  [[nodiscard]] std::optional<double> read(std::string_view name) const;

  /// Last written value or `fallback` for missing signals (initial ticks).
  [[nodiscard]] double read_or(std::string_view name, double fallback) const;

  [[nodiscard]] std::optional<Entry> entry(std::string_view name) const;
  [[nodiscard]] bool has(std::string_view name) const;
  [[nodiscard]] std::vector<std::string> names() const;

  /// Observers see every publish (tracing, gateway bridging).
  void add_observer(Observer observer);

  // --- modelled signal queues (resource supervision extension) -------------
  //
  // Last-is-best signals cannot back up, so queue exhaustion is modelled
  // explicitly: a signal configured with a bounded queue counts each publish
  // as an enqueue until the consumer drains it. Values still follow
  // last-is-best semantics — the queue models *depth pressure* (how far the
  // consumer lags), which is what the Resource Supervision Unit watches.

  struct QueueState {
    std::uint32_t capacity = 0;
    std::uint32_t depth = 0;
    std::uint32_t peak_depth = 0;
    std::uint64_t enqueued = 0;
    std::uint64_t drained = 0;
    /// Publishes that arrived while the queue was full (lost updates).
    std::uint64_t overflows = 0;
  };

  /// Gives `name` a bounded queue of `capacity` entries (re-configuring
  /// resets the queue state).
  void configure_queue(std::string_view name, std::uint32_t capacity);
  /// Consumer side: removes up to `count` queued entries; returns how many
  /// were actually drained.
  std::uint32_t drain(std::string_view name, std::uint32_t count = 1);
  /// Empties the queue and clears peak/overflow counters (task restart).
  void clear_queue(std::string_view name);
  [[nodiscard]] std::optional<QueueState> queue_state(
      std::string_view name) const;
  [[nodiscard]] std::vector<std::string> queued_signal_names() const;

 private:
  struct Policy {
    ReceptionPolicy policy;
    sim::SimTime armed_at;
  };

  /// Hashes std::string and std::string_view alike (heterogeneous lookup).
  /// Deliberately not noexcept: libstdc++ then caches each node's hash, as
  /// it does for std::hash<std::string>, so walking a bucket compares
  /// cached codes instead of rehashing the neighbouring names.
  struct NameHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view name) const {
      return std::hash<std::string_view>{}(name);
    }
  };
  template <typename V>
  using NameMap =
      std::unordered_map<std::string, V, NameHash, std::equal_to<>>;

  /// The map's value for `name`, created (name copied) on first use.
  template <typename V>
  static V& slot(NameMap<V>& map, std::string_view name) {
    auto it = map.find(name);
    if (it == map.end()) it = map.emplace(std::string(name), V{}).first;
    return it->second;
  }

  NameMap<Entry> entries_;
  NameMap<Policy> policies_;
  NameMap<QueueState> queues_;
  std::vector<Observer> observers_;
};

}  // namespace easis::rte
