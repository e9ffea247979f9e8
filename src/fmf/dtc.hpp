// Diagnostic trouble code (DTC) store.
//
// The workshop-facing half of the Fault Management Framework: every fault
// record maps to a DTC keyed by (application, error type). Entries carry
// occurrence counters, first/last timestamps, a status (active / cleared),
// and a freeze frame — a snapshot of configured signals at first
// occurrence, as automotive diagnostics (ISO 14229-style) expects.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "rte/signal_bus.hpp"
#include "sim/time.hpp"
#include "util/ids.hpp"
#include "wdg/types.hpp"

namespace easis::fmf {

/// DTC identity: which application reported which error class.
struct DtcKey {
  ApplicationId application;
  wdg::ErrorType type = wdg::ErrorType::kAliveness;
  auto operator<=>(const DtcKey&) const = default;
};

struct FreezeFrame {
  sim::SimTime captured_at;
  std::vector<std::pair<std::string, double>> signals;
};

struct DtcEntry {
  DtcKey key;
  std::uint32_t occurrences = 0;
  sim::SimTime first_seen;
  sim::SimTime last_seen;
  bool active = true;
  std::optional<FreezeFrame> freeze_frame;
};

class DtcStore {
 public:
  /// `signals` supplies freeze-frame data; `frame_signals` names what to
  /// capture at the first occurrence of each DTC. `max_entries` bounds the
  /// store (automotive fault memories are small): when a new DTC arrives
  /// at a full store, the entry with the oldest last-occurrence is evicted
  /// (oldest-eviction). 0 = unbounded. Updates to an existing entry never
  /// evict and retain the first-occurrence freeze frame.
  DtcStore(const rte::SignalBus& signals,
           std::vector<std::string> frame_signals,
           std::size_t max_entries = 0);

  /// Records one fault occurrence (creates or updates the DTC).
  void record(const wdg::ErrorReport& report);

  [[nodiscard]] const DtcEntry* entry(const DtcKey& key) const;
  [[nodiscard]] std::vector<DtcEntry> entries() const;
  /// Visits every entry in key order (the order of entries()) without
  /// copying the store.
  template <typename Visitor>
  void for_each(Visitor&& visit) const {
    for (const auto& [_, entry] : entries_) visit(entry);
  }
  [[nodiscard]] std::size_t count() const { return entries_.size(); }
  [[nodiscard]] std::size_t active_count() const;
  [[nodiscard]] std::size_t max_entries() const { return max_entries_; }
  /// Entries dropped because the bounded store was full.
  [[nodiscard]] std::uint64_t evictions() const { return evictions_; }

  /// Marks a DTC passive (fault healed); occurrence history is retained.
  void set_passive(const DtcKey& key);
  /// Marks every DTC of one application passive.
  void set_application_passive(ApplicationId app);
  /// Workshop "clear DTCs": removes everything.
  void clear();

  /// Replaces the store content with entries restored from non-volatile
  /// memory (post-reset re-seed). Restored freeze frames are kept as
  /// captured; occurrence counters continue from the persisted values.
  void restore(const std::vector<DtcEntry>& entries);

  /// Renders the store as a diagnostic read-out.
  void write(std::ostream& out) const;

 private:
  const rte::SignalBus& signals_;
  std::vector<std::string> frame_signals_;
  std::size_t max_entries_;
  std::map<DtcKey, DtcEntry> entries_;
  std::uint64_t evictions_ = 0;

  [[nodiscard]] FreezeFrame capture(sim::SimTime at) const;
  void evict_oldest();
};

}  // namespace easis::fmf
