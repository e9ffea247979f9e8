#include "bus/fault_link.hpp"

namespace easis::bus {

FaultLink::Verdict FaultLink::process(Frame& frame) {
  Verdict verdict;
  if (partitioned_) {
    ++dropped_;
    verdict.drop = true;
    return verdict;
  }
  if (burst_remaining_ > 0) {
    --burst_remaining_;
    ++dropped_;
    verdict.drop = true;
    return verdict;
  }
  if (config_.loss_probability > 0.0 &&
      rng_.bernoulli(config_.loss_probability)) {
    ++dropped_;
    verdict.drop = true;
    return verdict;
  }
  if (config_.corrupt_probability > 0.0 && !frame.payload.empty() &&
      rng_.bernoulli(config_.corrupt_probability)) {
    const auto bit = static_cast<std::uint64_t>(rng_.uniform_int(
        0, static_cast<std::int64_t>(frame.payload.size() * 8) - 1));
    frame.payload[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    ++corrupted_;
  }
  if (config_.duplicate_probability > 0.0 &&
      rng_.bernoulli(config_.duplicate_probability)) {
    ++duplicated_;
    verdict.duplicate = true;
  }
  if (config_.max_delay_jitter > sim::Duration::zero()) {
    const std::int64_t us = rng_.uniform_int(
        0, config_.max_delay_jitter.as_micros());
    if (us > 0) {
      verdict.delay = sim::Duration::micros(us);
      ++delayed_;
    }
  }
  return verdict;
}

BabblingIdiot::BabblingIdiot(sim::Engine& engine,
                             std::function<void(Frame)> send,
                             BabblingIdiotConfig config)
    : engine_(engine), send_(std::move(send)), config_(config) {}

void BabblingIdiot::start() {
  if (babbling_) return;
  babbling_ = true;
  timer_ = engine_.every(config_.period, [this] { babble(); });
}

void BabblingIdiot::stop() {
  babbling_ = false;
  timer_.cancel();
}

void BabblingIdiot::babble() {
  Frame frame;
  frame.id = config_.frame_id;
  frame.payload.assign(config_.payload_bytes, 0xAA);
  ++sent_;
  send_(std::move(frame));
}

}  // namespace easis::bus
