// Tests for the E2E protection layer (bus/e2e) and the shared network
// fault model (bus/fault_link): protect/check semantics, the per-bus
// FaultLink verdicts on a live CAN bus, and the babbling-idiot flooder.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "bus/can.hpp"
#include "bus/e2e.hpp"
#include "bus/fault_link.hpp"
#include "bus/frame.hpp"
#include "sim/engine.hpp"

namespace easis::bus {
namespace {

using sim::Duration;
using sim::Engine;
using sim::SimTime;

Frame make_frame(std::uint32_t id, double value) {
  Frame frame;
  frame.id = id;
  encode_f32(frame, 0, value);
  return frame;
}

// --- E2E protect/check --------------------------------------------------------

TEST(E2ETest, ProtectRoundTrip) {
  E2ESender tx(E2EConfig{0x1234, 1});
  E2EReceiver rx(E2EConfig{0x1234, 1});
  Frame frame = make_frame(0x120, 88.5);
  const std::size_t app_bytes = frame.payload.size();
  tx.protect(frame);
  ASSERT_EQ(frame.payload.size(), app_bytes + kE2EHeaderBytes);
  EXPECT_EQ(rx.check(frame), E2EStatus::kOk);
  ASSERT_TRUE(decode_f32(frame, kE2EHeaderBytes).has_value());
  EXPECT_DOUBLE_EQ(*decode_f32(frame, kE2EHeaderBytes), 88.5);
  EXPECT_EQ(rx.ok_count(), 1u);
  EXPECT_EQ(rx.failures(), 0u);
}

TEST(E2ETest, CounterWrapsWithinModulo) {
  E2ESender tx(E2EConfig{0x0042, 1});
  E2EReceiver rx(E2EConfig{0x0042, 1});
  for (int i = 0; i < 40; ++i) {
    Frame frame = make_frame(0x120, static_cast<double>(i));
    tx.protect(frame);
    EXPECT_LT(frame.payload[1], kE2ECounterModulo);
    EXPECT_EQ(rx.check(frame), E2EStatus::kOk) << "frame " << i;
  }
  EXPECT_EQ(rx.ok_count(), 40u);
}

TEST(E2ETest, EveryDamagedBitIsDetected) {
  // Single-bit errors are within CRC-8's guaranteed Hamming distance:
  // flipping any one bit of the protected frame must fail the check.
  E2ESender tx(E2EConfig{0x5301, 1});
  Frame reference = make_frame(0x120, 120.0);
  tx.protect(reference);
  for (std::size_t bit = 0; bit < reference.payload.size() * 8; ++bit) {
    E2EReceiver rx(E2EConfig{0x5301, 1});
    Frame damaged = reference;
    damaged.payload[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    EXPECT_EQ(rx.check(damaged), E2EStatus::kCrcError) << "bit " << bit;
    EXPECT_EQ(rx.crc_errors(), 1u);
  }
}

TEST(E2ETest, MaskedDataIdRejectsCrossChannelFrame) {
  // The data id is not transmitted: a frame misrouted onto a channel with
  // a different agreed id must fail the CRC even though it is undamaged.
  E2ESender tx(E2EConfig{0x5301, 1});
  E2EReceiver rx(E2EConfig{0x5302, 1});
  Frame frame = make_frame(0x120, 120.0);
  tx.protect(frame);
  EXPECT_EQ(rx.check(frame), E2EStatus::kCrcError);
}

TEST(E2ETest, RepeatedFrameDetected) {
  E2ESender tx(E2EConfig{0x0007, 1});
  E2EReceiver rx(E2EConfig{0x0007, 1});
  Frame frame = make_frame(0x120, 50.0);
  tx.protect(frame);
  EXPECT_EQ(rx.check(frame), E2EStatus::kOk);
  EXPECT_EQ(rx.check(frame), E2EStatus::kRepeated);  // replay / stuck sender
  EXPECT_EQ(rx.repeats(), 1u);
  EXPECT_EQ(rx.failures(), 1u);
}

TEST(E2ETest, LostFrameBeyondMaxDeltaIsWrongSequence) {
  E2ESender tx(E2EConfig{0x0008, 1});
  E2EReceiver rx(E2EConfig{0x0008, 1});
  Frame first = make_frame(0x120, 1.0);
  Frame lost = make_frame(0x120, 2.0);
  Frame third = make_frame(0x120, 3.0);
  tx.protect(first);
  tx.protect(lost);
  tx.protect(third);
  EXPECT_EQ(rx.check(first), E2EStatus::kOk);
  // `lost` never arrives.
  EXPECT_EQ(rx.check(third), E2EStatus::kWrongSequence);
  EXPECT_EQ(rx.wrong_sequences(), 1u);
}

TEST(E2ETest, MaxDeltaToleratesConfiguredLoss) {
  E2ESender tx(E2EConfig{0x0009, 2});
  E2EReceiver rx(E2EConfig{0x0009, 2});
  Frame first = make_frame(0x120, 1.0);
  Frame lost = make_frame(0x120, 2.0);
  Frame third = make_frame(0x120, 3.0);
  tx.protect(first);
  tx.protect(lost);
  tx.protect(third);
  EXPECT_EQ(rx.check(first), E2EStatus::kOk);
  EXPECT_EQ(rx.check(third), E2EStatus::kOk);  // delta 2 <= max_delta 2
  EXPECT_EQ(rx.wrong_sequences(), 0u);
}

TEST(E2ETest, NoNewDataCountsAsFailure) {
  E2EReceiver rx(E2EConfig{0x000A, 1});
  EXPECT_EQ(rx.no_new_data(), E2EStatus::kNoNewData);
  EXPECT_EQ(rx.no_new_data_count(), 1u);
  EXPECT_EQ(rx.failures(), 1u);
}

TEST(E2ETest, TruncatedFrameIsCrcError) {
  E2EReceiver rx(E2EConfig{0x000B, 1});
  Frame frame;
  frame.id = 0x120;
  frame.payload = {0x55};  // shorter than the E2E header itself
  EXPECT_EQ(rx.check(frame), E2EStatus::kCrcError);
}

TEST(E2ETest, ReservedCounterValueRejected) {
  E2EReceiver rx(E2EConfig{0x000C, 1});
  Frame frame = make_frame(0x120, 4.0);
  // Hand-craft a header with the reserved counter value 15.
  frame.payload.insert(frame.payload.begin(), {0x00, kE2ECounterModulo});
  EXPECT_EQ(rx.check(frame), E2EStatus::kCrcError);
}

// --- FaultLink ---------------------------------------------------------------

TEST(FaultLinkTest, InertByDefault) {
  FaultLink link;
  Frame frame = make_frame(0x100, 7.0);
  const Frame before = frame;
  const auto verdict = link.process(frame);
  EXPECT_FALSE(verdict.drop);
  EXPECT_FALSE(verdict.duplicate);
  EXPECT_EQ(verdict.delay, Duration::zero());
  EXPECT_EQ(frame.payload, before.payload);
}

TEST(FaultLinkTest, PartitionDropsEverythingUntilLifted) {
  FaultLink link;
  link.set_partitioned(true);
  Frame frame = make_frame(0x100, 7.0);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(link.process(frame).drop);
  EXPECT_EQ(link.frames_dropped(), 5u);
  link.set_partitioned(false);
  EXPECT_FALSE(link.process(frame).drop);
}

TEST(FaultLinkTest, LossBurstDropsExactlyN) {
  FaultLink link;
  link.start_loss_burst(3);
  Frame frame = make_frame(0x100, 7.0);
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(link.process(frame).drop);
  EXPECT_EQ(link.loss_burst_remaining(), 0u);
  EXPECT_FALSE(link.process(frame).drop);
  EXPECT_EQ(link.frames_dropped(), 3u);
}

TEST(FaultLinkTest, CorruptionFlipsExactlyOneBit) {
  FaultLink link;
  FaultLinkConfig config;
  config.corrupt_probability = 1.0;
  link.set_config(config);
  Frame frame = make_frame(0x100, 7.0);
  const Frame before = frame;
  const auto verdict = link.process(frame);
  EXPECT_FALSE(verdict.drop);
  int flipped = 0;
  for (std::size_t i = 0; i < frame.payload.size(); ++i) {
    flipped += std::popcount(
        static_cast<unsigned>(frame.payload[i] ^ before.payload[i]));
  }
  EXPECT_EQ(flipped, 1);
  EXPECT_EQ(link.frames_corrupted(), 1u);
}

TEST(FaultLinkTest, CorruptionIsCaughtByE2E) {
  E2ESender tx(E2EConfig{0x5301, 1});
  E2EReceiver rx(E2EConfig{0x5301, 1});
  FaultLink link;
  FaultLinkConfig config;
  config.corrupt_probability = 1.0;
  link.set_config(config);
  for (int i = 0; i < 20; ++i) {
    Frame frame = make_frame(0x120, static_cast<double>(i));
    tx.protect(frame);
    link.process(frame);
    EXPECT_EQ(rx.check(frame), E2EStatus::kCrcError) << "frame " << i;
  }
  EXPECT_EQ(rx.crc_errors(), 20u);
  EXPECT_EQ(rx.ok_count(), 0u);
}

TEST(FaultLinkTest, DeterministicUnderSameSeed) {
  FaultLinkConfig config;
  config.corrupt_probability = 0.5;
  config.loss_probability = 0.3;
  FaultLink a(1234);
  FaultLink b(1234);
  a.set_config(config);
  b.set_config(config);
  for (int i = 0; i < 200; ++i) {
    Frame fa = make_frame(0x100, static_cast<double>(i));
    Frame fb = fa;
    const auto va = a.process(fa);
    const auto vb = b.process(fb);
    ASSERT_EQ(va.drop, vb.drop);
    ASSERT_EQ(fa.payload, fb.payload);
  }
  EXPECT_EQ(a.frames_dropped(), b.frames_dropped());
  EXPECT_EQ(a.frames_corrupted(), b.frames_corrupted());
}

// --- FaultLink on a live CAN bus ----------------------------------------------

class CanFaultTest : public ::testing::Test {
 protected:
  Engine engine;
  CanBus can{engine};
  FaultLink link;
  std::vector<std::pair<Frame, SimTime>> received;
  CanBus::EndpointId tx = 0;

  void SetUp() override {
    can.set_fault_link(&link);
    tx = can.attach("tx", nullptr);
    can.attach("rx", [this](const Frame& frame, SimTime now) {
      received.emplace_back(frame, now);
    });
  }
};

TEST_F(CanFaultTest, PartitionLosesFramesOnTheBus) {
  link.set_partitioned(true);
  can.transmit(tx, make_frame(0x100, 1.0));
  can.transmit(tx, make_frame(0x101, 2.0));
  engine.run_until(SimTime(10'000));
  EXPECT_TRUE(received.empty());
  EXPECT_EQ(can.frames_lost(), 2u);
  EXPECT_EQ(can.frames_delivered(), 0u);
}

TEST_F(CanFaultTest, DuplicationDeliversTwice) {
  FaultLinkConfig config;
  config.duplicate_probability = 1.0;
  link.set_config(config);
  can.transmit(tx, make_frame(0x100, 1.0));
  engine.run_until(SimTime(10'000));
  ASSERT_EQ(received.size(), 2u);
  EXPECT_EQ(received[0].first.payload, received[1].first.payload);
  EXPECT_EQ(link.frames_duplicated(), 1u);
}

TEST_F(CanFaultTest, JitterDelaysDelivery) {
  FaultLinkConfig config;
  config.max_delay_jitter = Duration::millis(5);
  link.set_config(config);
  for (int i = 0; i < 10; ++i) {
    engine.schedule_at(SimTime(i * 10'000),
                       [this, i] { can.transmit(tx, make_frame(0x100, i)); });
  }
  engine.run_until(SimTime(1'000'000));
  ASSERT_EQ(received.size(), 10u);
  EXPECT_GT(link.frames_delayed(), 0u);
  // Delayed frames arrive after the nominal frame time but within the
  // configured jitter bound.
  const Duration frame_time = can.frame_time(received[0].first);
  for (std::size_t i = 0; i < received.size(); ++i) {
    const SimTime sent(static_cast<std::int64_t>(i) * 10'000);
    const auto latency = received[i].second - sent;
    EXPECT_GE(latency, frame_time);
    EXPECT_LE(latency, frame_time + config.max_delay_jitter);
  }
}

TEST(BabblingIdiot, StopLeavesNothingQueued) {
  Engine engine;
  std::uint64_t sent = 0;
  BabblingIdiot babbler(engine, [&sent](Frame) { ++sent; });
  babbler.start();
  engine.run_until(SimTime(1'050));
  babbler.stop();
  EXPECT_EQ(engine.pending_events(), 0u);
  engine.run_until(SimTime(5'000));
  EXPECT_EQ(sent, 10u);  // every 100 us up to the stop
  EXPECT_EQ(babbler.frames_sent(), 10u);
  babbler.start();  // restarts one period from now
  engine.run_until(SimTime(5'100));
  EXPECT_EQ(sent, 11u);
}

TEST_F(CanFaultTest, BabblingIdiotStarvesLowerPriorityTraffic) {
  const auto rogue = can.attach("rogue", nullptr);
  BabblingIdiot babbler(
      engine, [this, rogue](Frame frame) { can.transmit(rogue, frame); });
  babbler.start();
  // A victim frame sent mid-babble never wins arbitration against id 0.
  engine.schedule_at(SimTime(5'000),
                     [this] { can.transmit(tx, make_frame(0x100, 1.0)); });
  engine.schedule_at(SimTime(25'000), [&] { babbler.stop(); });
  engine.run_until(SimTime(25'000));
  const auto victim_frames = [this] {
    std::size_t n = 0;
    for (const auto& entry : received) n += entry.first.id == 0x100;
    return n;
  };
  EXPECT_EQ(victim_frames(), 0u);
  EXPECT_GT(babbler.frames_sent(), 50u);
  // Once the flooder stops and its backlog drains, the victim gets through.
  engine.run_until(SimTime(200'000));
  EXPECT_EQ(victim_frames(), 1u);
}

}  // namespace
}  // namespace easis::bus
