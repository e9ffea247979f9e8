// Flight recorder: a bounded ring of the most recent telemetry events.
//
// Attached as a bus sink alongside the full per-run event log. Its job is
// the failure path: when a campaign run hangs, errors out or misdetects,
// the ring holds the last events leading up to the failure — cheap enough
// to keep always-on (the automotive EDR idea applied to the simulator),
// and the only record a quarantined run leaves behind, since a hung run
// never returns its full log.
#pragma once

#include <cstddef>
#include <ostream>

#include "telemetry/event.hpp"
#include "telemetry/event_log.hpp"
#include "util/ring_buffer.hpp"

namespace easis::telemetry {

class FlightRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 256;

  explicit FlightRecorder(std::size_t capacity = kDefaultCapacity)
      : ring_(capacity) {}

  /// Bus-sink entry point.
  void on_event(const Event& event) { ring_.push(event); }

  void clear() { ring_.clear(); }

  [[nodiscard]] std::size_t size() const { return ring_.size(); }
  /// Events overwritten because the ring was full.
  [[nodiscard]] std::size_t dropped() const { return ring_.dropped(); }
  /// Retained events, oldest first, as a compact log.
  [[nodiscard]] EventLog snapshot() const {
    EventLog log;
    for (std::size_t i = 0; i < ring_.size(); ++i) log.push_back(ring_.at(i));
    return log;
  }

  /// Human-readable dump: a header noting retained/dropped counts, then
  /// one canonical event line per retained event, oldest first.
  void dump(std::ostream& out) const {
    out << "flight recorder: " << ring_.size() << " event(s) retained";
    if (ring_.dropped() > 0) out << ", " << ring_.dropped() << " older dropped";
    out << '\n';
    for (std::size_t i = 0; i < ring_.size(); ++i) {
      write_event_line(out, ring_.at(i));
      out << '\n';
    }
  }

 private:
  util::RingBuffer<Event> ring_;
};

}  // namespace easis::telemetry
