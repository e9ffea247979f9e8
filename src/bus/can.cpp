#include "bus/can.hpp"

#include <algorithm>
#include <cassert>

namespace easis::bus {

CanBus::CanBus(sim::Engine& engine, std::uint32_t bitrate_bps)
    : engine_(engine), bitrate_bps_(bitrate_bps) {
  assert(bitrate_bps_ > 0);
}

CanBus::EndpointId CanBus::attach(std::string name, FrameHandler rx) {
  endpoints_.push_back(Endpoint{std::move(name), std::move(rx)});
  return endpoints_.size() - 1;
}

const std::string& CanBus::endpoint_name(EndpointId id) const {
  assert(id < endpoints_.size());
  return endpoints_[id].name;
}

sim::Duration CanBus::frame_time(const Frame& frame) const {
  // Standard data frame: 47 framing bits + 8 per payload byte; worst-case
  // bit stuffing adds ~20% on the stuffable region.
  const std::size_t data_bits = 8 * std::min<std::size_t>(frame.payload.size(), 8);
  const std::size_t raw_bits = 47 + data_bits;
  const std::size_t stuffed = raw_bits + (34 + data_bits) / 5;
  const double seconds = static_cast<double>(stuffed) / bitrate_bps_;
  return sim::Duration::micros(
      static_cast<std::int64_t>(seconds * 1e6) + 1);
}

void CanBus::transmit(EndpointId from, Frame frame) {
  assert(from < endpoints_.size());
  const std::pair<std::uint32_t, std::uint64_t> key{frame.id, seq_++};
  pending_.emplace(key, Pending{from, std::move(frame)});
  try_start();
}

void CanBus::try_start() {
  if (busy_ || pending_.empty()) return;
  // Arbitration: lowest identifier wins; FIFO among equal ids.
  Pending tx = std::move(pending_.begin()->second);
  pending_.erase(pending_.begin());
  busy_ = true;
  const sim::Duration duration = frame_time(tx.frame);
  engine_.schedule_in(duration, [this, tx = std::move(tx)] {
    busy_ = false;
    if (bus_off_ || (drop_hook_ && drop_hook_(tx.frame))) {
      ++lost_;
      try_start();
      return;
    }
    Frame frame = tx.frame;  // fault link may corrupt in place
    FaultLink::Verdict verdict;
    if (fault_link_) verdict = fault_link_->process(frame);
    if (verdict.drop) {
      ++lost_;
      try_start();
      return;
    }
    if (verdict.delay > sim::Duration::zero()) {
      engine_.schedule_in(verdict.delay,
                          [this, frame, from = tx.from] {
                            deliver(frame, from);
                          });
    } else {
      deliver(frame, tx.from);
    }
    if (verdict.duplicate) deliver(frame, tx.from);
    try_start();
  });
}

void CanBus::deliver(const Frame& frame, EndpointId from) {
  ++delivered_;
  for (std::size_t i = 0; i < endpoints_.size(); ++i) {
    if (i == from || !endpoints_[i].rx) continue;
    endpoints_[i].rx(frame, engine_.now());
  }
}

}  // namespace easis::bus
