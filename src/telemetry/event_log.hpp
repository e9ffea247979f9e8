// Compact per-run event log.
//
// A campaign keeps every run's telemetry until its end-of-campaign exports,
// so the stored form of an event is what sets campaign memory. EventLog
// stores each Event as one fixed 40-byte Record (the scalar fields plus the
// offset and length of its detail) and appends every detail's text to one
// per-log string arena: no per-event heap block, no interning, no hashing.
// A detail equal to one of the last kShareWindow events' shares its bytes
// instead of being appended again.
//
// Reads stay vector-like: size(), empty(), operator[], front(), back() and
// range-for all yield a telemetry::Event rebuilt from the record, so
// callers see the same values they appended.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "telemetry/event.hpp"

namespace easis::telemetry {

class EventLog {
 public:
  /// Yields Events by value: each dereference rebuilds one from its record.
  class const_iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = Event;
    using difference_type = std::ptrdiff_t;
    using reference = Event;
    using pointer = void;

    const_iterator(const EventLog* log, std::size_t index)
        : log_(log), index_(index) {}

    Event operator*() const { return (*log_)[index_]; }
    const_iterator& operator++() {
      ++index_;
      return *this;
    }
    friend bool operator==(const const_iterator&,
                           const const_iterator&) = default;

   private:
    const EventLog* log_;
    std::size_t index_;
  };

  /// Appends a copy of `event`.
  void push_back(const Event& event);

  /// Drops every event but keeps both buffers' capacity, so a reused log
  /// stops allocating once it has seen its largest run.
  void clear() {
    records_.clear();
    arena_.clear();
  }

  [[nodiscard]] std::size_t size() const { return records_.size(); }
  [[nodiscard]] bool empty() const { return records_.empty(); }

  [[nodiscard]] Event operator[](std::size_t index) const;
  [[nodiscard]] Event front() const { return (*this)[0]; }
  [[nodiscard]] Event back() const { return (*this)[size() - 1]; }

  /// The last `n` events (all of them when the log is shorter), oldest
  /// first, as a log of their own: the flight record of a run.
  [[nodiscard]] EventLog tail(std::size_t n) const;

  [[nodiscard]] const_iterator begin() const { return {this, 0}; }
  [[nodiscard]] const_iterator end() const { return {this, size()}; }

 private:
  /// One stored event: Event's scalar fields, ids as their raw values, and
  /// the event's detail as a slice of the arena.
  struct Record {
    std::uint64_t seq = 0;
    std::int64_t time_us = 0;
    std::uint32_t injection = 0;
    std::uint32_t runnable = 0;
    std::uint32_t task = 0;
    std::uint32_t application = 0;
    std::uint32_t detail_offset = 0;
    std::uint16_t detail_length = 0;
    Component component = Component::kHarness;
    EventKind kind = EventKind::kErrorDetected;
  };
  // A campaign keeps every run's log until its exports, so the record size
  // scales its memory (~400 events per environment run, ~1,700 per mode
  // run).
  static_assert(sizeof(Record) <= 40, "an event record must stay compact");

  /// Records push_back() searches for a detail to share. Error cycles
  /// repeat a handful of details (threshold trip, state change,
  /// treatment); 16 catches most repeats at a few length compares each.
  static constexpr std::size_t kShareWindow = 16;

  std::vector<Record> records_;
  /// Every distinct detail in append order; records may share a slice.
  std::string arena_;
};

}  // namespace easis::telemetry
