// Unit tests for the communication substrate: CAN arbitration, FlexRay
// TDMA, gateway routing, signal codec.
#include <gtest/gtest.h>

#include <vector>

#include "bus/can.hpp"
#include "bus/flexray.hpp"
#include "bus/frame.hpp"
#include "bus/gateway.hpp"
#include "bus/lin.hpp"
#include "sim/engine.hpp"

namespace easis::bus {
namespace {

using sim::Duration;
using sim::Engine;
using sim::SimTime;

Frame frame(std::uint32_t id, std::size_t payload_bytes = 4) {
  Frame f;
  f.id = id;
  f.payload.assign(payload_bytes, 0xAB);
  return f;
}

// --- codec -------------------------------------------------------------------

TEST(Codec, F32RoundTrip) {
  Frame f;
  encode_f32(f, 0, 123.5);
  EXPECT_EQ(f.payload.size(), 4u);
  ASSERT_TRUE(decode_f32(f, 0).has_value());
  EXPECT_DOUBLE_EQ(*decode_f32(f, 0), 123.5);
}

TEST(Codec, F32AtOffsetGrowsPayload) {
  Frame f;
  encode_f32(f, 2, -7.25);
  EXPECT_EQ(f.payload.size(), 6u);
  ASSERT_TRUE(decode_f32(f, 2).has_value());
  EXPECT_DOUBLE_EQ(*decode_f32(f, 2), -7.25);
}

TEST(Codec, DecodeShortPayloadRejected) {
  // A truncated frame must not read as "0 km/h".
  Frame f;
  f.payload = {1, 2};
  EXPECT_EQ(decode_f32(f, 0), std::nullopt);
  encode_f32(f, 0, 9.0);
  EXPECT_EQ(decode_f32(f, 1), std::nullopt);  // offset past the end
}

// --- CAN ----------------------------------------------------------------------

class CanTest : public ::testing::Test {
 protected:
  Engine engine;
  CanBus bus{engine, 500'000};
  std::vector<std::pair<std::string, std::uint32_t>> received;

  CanBus::EndpointId attach(const std::string& name) {
    return bus.attach(name, [this, name](const Frame& f, SimTime) {
      received.emplace_back(name, f.id);
    });
  }
};

TEST_F(CanTest, FrameDeliveredToAllOthers) {
  const auto a = attach("a");
  attach("b");
  attach("c");
  bus.transmit(a, frame(0x100));
  engine.run_until(SimTime(1'000));
  ASSERT_EQ(received.size(), 2u);
  EXPECT_EQ(received[0].first, "b");
  EXPECT_EQ(received[1].first, "c");
  EXPECT_EQ(bus.frames_delivered(), 1u);
}

TEST_F(CanTest, SenderDoesNotReceiveOwnFrame) {
  const auto a = attach("a");
  bus.transmit(a, frame(0x100));
  engine.run_until(SimTime(1'000));
  EXPECT_TRUE(received.empty());
}

TEST_F(CanTest, LowerIdWinsArbitration) {
  const auto a = attach("a");
  const auto b = attach("b");
  attach("rx");
  // Occupy the bus, then queue two competing frames.
  bus.transmit(a, frame(0x300));
  bus.transmit(a, frame(0x200));
  bus.transmit(b, frame(0x100));
  engine.run_until(SimTime(10'000));
  ASSERT_EQ(received.size(), 6u);  // 3 frames, 2 receivers each
  // First completed: 0x300 (was alone). Then 0x100 beats 0x200.
  std::vector<std::uint32_t> rx_order;
  for (const auto& [name, id] : received) {
    if (name == "rx") rx_order.push_back(id);
  }
  EXPECT_EQ(rx_order, (std::vector<std::uint32_t>{0x300, 0x100, 0x200}));
}

TEST_F(CanTest, FifoAmongEqualIds) {
  std::vector<std::uint8_t> order;
  const auto a = bus.attach("a", nullptr);
  bus.attach("rx", [&](const Frame& f, SimTime) {
    if (f.id == 0x100) order.push_back(f.payload[0]);
  });
  Frame f1 = frame(0x100, 1);
  f1.payload[0] = 1;
  Frame f2 = frame(0x100, 1);
  f2.payload[0] = 2;
  bus.transmit(a, frame(0x50));  // occupy
  bus.transmit(a, std::move(f1));
  bus.transmit(a, std::move(f2));
  engine.run_until(SimTime(10'000));
  EXPECT_EQ(bus.frames_delivered(), 3u);
  EXPECT_EQ(order, (std::vector<std::uint8_t>{1, 2}));
}

TEST_F(CanTest, FrameTimeScalesWithPayloadAndBitrate) {
  const Duration short_frame = bus.frame_time(frame(0x1, 0));
  const Duration long_frame = bus.frame_time(frame(0x1, 8));
  EXPECT_GT(long_frame, short_frame);
  CanBus slow(engine, 125'000);
  EXPECT_GT(slow.frame_time(frame(0x1, 8)), long_frame);
  // 8-byte frame at 500 kbit/s: (47+64) bits + stuffing ~ 131 bits ~ 262 us.
  EXPECT_NEAR(long_frame.as_micros(), 262, 15);
}

TEST_F(CanTest, BusyFlagDuringTransmission) {
  const auto a = attach("a");
  bus.transmit(a, frame(0x100));
  EXPECT_TRUE(bus.busy());
  engine.run_until(SimTime(10'000));
  EXPECT_FALSE(bus.busy());
  EXPECT_EQ(bus.pending(), 0u);
}

// --- FlexRay --------------------------------------------------------------------

class FlexRayTest : public ::testing::Test {
 protected:
  Engine engine;
  FlexRayConfig config{Duration::millis(5), 5};  // 1 ms slots
  FlexRayBus bus{engine, config};
  std::vector<std::pair<std::uint32_t, SimTime>> received;

  FlexRayBus::EndpointId attach_rx(const std::string& name) {
    return bus.attach(name, [this](const Frame& f, SimTime t) {
      received.emplace_back(f.id, t);
    });
  }
};

TEST_F(FlexRayTest, DeliversInOwnedSlotAtSlotEnd) {
  const auto tx = bus.attach("tx", nullptr);
  attach_rx("rx");
  bus.assign_slot(2, tx);
  bus.start();
  EXPECT_TRUE(bus.send(tx, 2, frame(0x42)));
  engine.run_until(SimTime(5'000));
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0].first, 0x42u);
  // Slot 2 of 1 ms slots ends at 3 ms.
  EXPECT_EQ(received[0].second, SimTime(3'000));
}

TEST_F(FlexRayTest, SendOnForeignSlotRejected) {
  const auto tx = bus.attach("tx", nullptr);
  const auto other = bus.attach("other", nullptr);
  bus.assign_slot(1, other);
  bus.start();
  EXPECT_FALSE(bus.send(tx, 1, frame(0x42)));
  EXPECT_FALSE(bus.send(tx, 99, frame(0x42)));
}

TEST_F(FlexRayTest, LastIsBestWithinCycle) {
  const auto tx = bus.attach("tx", nullptr);
  attach_rx("rx");
  bus.assign_slot(0, tx);
  bus.start();
  bus.send(tx, 0, frame(0x1));
  bus.send(tx, 0, frame(0x2));  // overwrites before the slot fires
  engine.run_until(SimTime(5'000));
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0].first, 0x2u);
}

TEST_F(FlexRayTest, EmptySlotDeliversNothing) {
  const auto tx = bus.attach("tx", nullptr);
  attach_rx("rx");
  bus.assign_slot(0, tx);
  bus.start();
  engine.run_until(SimTime(20'000));
  EXPECT_TRUE(received.empty());
  EXPECT_GE(bus.cycles_completed(), 3u);
}

TEST_F(FlexRayTest, PeriodicSendEveryCycle) {
  const auto tx = bus.attach("tx", nullptr);
  attach_rx("rx");
  bus.assign_slot(0, tx);
  bus.start();
  for (int cycle = 0; cycle < 4; ++cycle) {
    engine.schedule_at(SimTime(cycle * 5'000),
                       [this, tx] { bus.send(tx, 0, frame(0x9)); });
  }
  engine.run_until(SimTime(20'000));
  EXPECT_EQ(received.size(), 4u);
  EXPECT_EQ(bus.frames_delivered(), 4u);
}

TEST_F(FlexRayTest, DoubleSlotAssignmentRejected) {
  const auto a = bus.attach("a", nullptr);
  const auto b = bus.attach("b", nullptr);
  bus.assign_slot(0, a);
  EXPECT_THROW(bus.assign_slot(0, b), std::logic_error);
  EXPECT_THROW(bus.assign_slot(99, a), std::invalid_argument);
}

TEST_F(FlexRayTest, StopHaltsCycling) {
  const auto tx = bus.attach("tx", nullptr);
  attach_rx("rx");
  bus.assign_slot(0, tx);
  bus.start();
  engine.run_until(SimTime(7'000));
  bus.stop();
  EXPECT_EQ(engine.pending_events(), 0u);  // slot ends and cycle cancelled
  bus.send(tx, 0, frame(0x1));
  engine.run_until(SimTime(50'000));
  EXPECT_TRUE(received.empty());
}

TEST_F(CanTest, BusOffLosesFrames) {
  const auto a = attach("a");
  attach("b");
  bus.set_bus_off(true);
  bus.transmit(a, frame(0x100));
  engine.run_until(SimTime(10'000));
  EXPECT_TRUE(received.empty());
  EXPECT_EQ(bus.frames_lost(), 1u);
  EXPECT_EQ(bus.frames_delivered(), 0u);
  bus.set_bus_off(false);
  bus.transmit(a, frame(0x100));
  engine.run_until(SimTime(20'000));
  EXPECT_EQ(received.size(), 1u);
}

TEST_F(CanTest, DropHookLosesSelectedFrames) {
  const auto a = attach("a");
  attach("b");
  bus.set_drop_hook([](const Frame& f) { return f.id == 0x200; });
  bus.transmit(a, frame(0x100));
  bus.transmit(a, frame(0x200));
  engine.run_until(SimTime(10'000));
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0].second, 0x100u);
  EXPECT_EQ(bus.frames_lost(), 1u);
}

TEST_F(CanTest, BusOffStillConsumesBusTime) {
  // Frames are "transmitted" (the sender does not know the bus is dead),
  // so the bus stays serialised.
  const auto a = attach("a");
  bus.set_bus_off(true);
  bus.transmit(a, frame(0x100));
  EXPECT_TRUE(bus.busy());
  engine.run_until(SimTime(10'000));
  EXPECT_FALSE(bus.busy());
}

// --- Gateway ----------------------------------------------------------------------

TEST(GatewayTest, RoutesBetweenDomainsWithIdRewrite) {
  Engine engine;
  Gateway gateway(engine, Duration::micros(100));
  std::vector<Frame> can_out;
  auto telematics_in = gateway.register_domain(
      "telematics", [](Frame) {});
  auto can_in = gateway.register_domain(
      "can", [&](Frame f) { can_out.push_back(std::move(f)); });
  (void)can_in;
  gateway.add_route("telematics", 0x10, "can", 0x120);

  Frame f;
  f.id = 0x10;
  encode_f32(f, 0, 60.0);
  telematics_in(f, engine.now());
  engine.run_until(SimTime(1'000));
  ASSERT_EQ(can_out.size(), 1u);
  EXPECT_EQ(can_out[0].id, 0x120u);
  ASSERT_TRUE(decode_f32(can_out[0], 0).has_value());
  EXPECT_DOUBLE_EQ(*decode_f32(can_out[0], 0), 60.0);
  EXPECT_EQ(gateway.frames_routed(), 1u);
  EXPECT_EQ(gateway.route_delivered("telematics", 0x10), 1u);
  EXPECT_EQ(gateway.route_dropped("telematics", 0x10), 0u);
}

TEST(GatewayTest, UnroutedFramesDropped) {
  Engine engine;
  Gateway gateway(engine);
  auto in = gateway.register_domain("a", [](Frame) {});
  gateway.register_domain("b", [](Frame) {});
  gateway.add_route("a", 0x1, "b", 0x2);
  Frame f;
  f.id = 0x99;
  in(f, engine.now());
  engine.run_until(SimTime(1'000));
  EXPECT_EQ(gateway.frames_dropped(), 1u);
  EXPECT_EQ(gateway.frames_routed(), 0u);
}

TEST(GatewayTest, PerRouteDropCounters) {
  Engine engine;
  Gateway gateway(engine);
  auto in = gateway.register_domain("a", [](Frame) {});
  gateway.register_domain("b", [](Frame) {});
  gateway.add_route("a", 0x1, "b", 0x2);
  Frame unrouted;
  unrouted.id = 0x99;
  in(unrouted, engine.now());
  in(unrouted, engine.now());
  Frame routed;
  routed.id = 0x1;
  in(routed, engine.now());
  engine.run_until(SimTime(1'000));
  EXPECT_EQ(gateway.route_dropped("a", 0x99), 2u);
  EXPECT_EQ(gateway.route_delivered("a", 0x99), 0u);
  EXPECT_EQ(gateway.route_delivered("a", 0x1), 1u);
  EXPECT_EQ(gateway.route_dropped("a", 0x1), 0u);
  EXPECT_EQ(gateway.route_dropped("never", 0x1), 0u);
}

TEST(GatewayTest, StallHoldsBacklogAndRecovers) {
  Engine engine;
  Gateway gateway(engine, Duration::micros(100));
  std::vector<std::uint32_t> out;
  auto in = gateway.register_domain("a", [](Frame) {});
  gateway.register_domain("b", [&](Frame f) { out.push_back(f.id); });
  gateway.add_route("a", 0x1, "b", 0x11);
  gateway.add_route("a", 0x2, "b", 0x22);

  gateway.set_stalled(true);
  Frame f1, f2;
  f1.id = 0x1;
  f2.id = 0x2;
  in(f1, engine.now());
  in(f2, engine.now());
  engine.run_until(SimTime(10'000));
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(gateway.backlog(), 2u);

  gateway.set_stalled(false);
  EXPECT_EQ(gateway.backlog(), 0u);
  engine.run_until(SimTime(20'000));
  EXPECT_EQ(out, (std::vector<std::uint32_t>{0x11, 0x22}));  // arrival order
  EXPECT_EQ(gateway.frames_dropped(), 0u);
}

TEST(GatewayTest, FanOutToMultipleTargets) {
  Engine engine;
  Gateway gateway(engine);
  int b_count = 0, c_count = 0;
  auto in = gateway.register_domain("a", [](Frame) {});
  gateway.register_domain("b", [&](Frame) { ++b_count; });
  gateway.register_domain("c", [&](Frame) { ++c_count; });
  gateway.add_route("a", 0x1, "b", 0x1);
  gateway.add_route("a", 0x1, "c", 0x5);
  Frame f;
  f.id = 0x1;
  in(f, engine.now());
  engine.run_until(SimTime(1'000));
  EXPECT_EQ(b_count, 1);
  EXPECT_EQ(c_count, 1);
  EXPECT_EQ(gateway.frames_routed(), 2u);
}

TEST(GatewayTest, RoutingLatencyApplied) {
  Engine engine;
  Gateway gateway(engine, Duration::micros(250));
  SimTime arrival;
  auto in = gateway.register_domain("a", [](Frame) {});
  gateway.register_domain("b", [&](Frame) { arrival = engine.now(); });
  gateway.add_route("a", 0x1, "b", 0x1);
  Frame f;
  f.id = 0x1;
  in(f, engine.now());
  engine.run_until(SimTime(1'000));
  EXPECT_EQ(arrival, SimTime(250));
}

TEST(GatewayTest, DuplicateDomainRejected) {
  Engine engine;
  Gateway gateway(engine);
  gateway.register_domain("a", [](Frame) {});
  EXPECT_THROW(gateway.register_domain("a", [](Frame) {}), std::logic_error);
}

TEST(GatewayTest, RouteWithUnknownDomainRejected) {
  Engine engine;
  Gateway gateway(engine);
  gateway.register_domain("a", [](Frame) {});
  EXPECT_THROW(gateway.add_route("a", 1, "nope", 2), std::invalid_argument);
  EXPECT_THROW(gateway.add_route("nope", 1, "a", 2), std::invalid_argument);
}

// --- LIN ---------------------------------------------------------------------------

class LinTest : public ::testing::Test {
 protected:
  Engine engine;
  LinBus bus{engine, Duration::millis(10)};
  std::vector<std::pair<std::string, std::uint32_t>> received;

  LinBus::EndpointId attach(const std::string& name) {
    return bus.attach(name, [this, name](const Frame& f, SimTime) {
      received.emplace_back(name, f.id);
    });
  }
};

TEST_F(LinTest, MasterPollsScheduleInOrder) {
  attach("master");
  const auto slave = bus.attach("slave", nullptr);
  int polled = 0;
  bus.set_publisher(0x11, slave, [&] {
    ++polled;
    return std::optional<std::vector<std::uint8_t>>{{1, 2}};
  });
  bus.set_schedule({0x11});
  bus.start();
  engine.run_until(SimTime(55'000));
  EXPECT_EQ(polled, 5);  // slots at 10..50 ms
  EXPECT_EQ(bus.responses(), 5u);
  ASSERT_EQ(received.size(), 5u);
  EXPECT_EQ(received[0].second, 0x11u);
}

TEST_F(LinTest, RoundRobinOverMultipleFrames) {
  attach("master");
  const auto a = bus.attach("a", nullptr);
  const auto b = bus.attach("b", nullptr);
  bus.set_publisher(0x1, a, [] {
    return std::optional<std::vector<std::uint8_t>>{{1}};
  });
  bus.set_publisher(0x2, b, [] {
    return std::optional<std::vector<std::uint8_t>>{{2}};
  });
  bus.set_schedule({0x1, 0x2});
  bus.start();
  engine.run_until(SimTime(45'000));  // 4 slots
  std::vector<std::uint32_t> master_rx;
  for (const auto& [name, id] : received) {
    if (name == "master") master_rx.push_back(id);
  }
  EXPECT_EQ(master_rx, (std::vector<std::uint32_t>{0x1, 0x2, 0x1, 0x2}));
}

TEST_F(LinTest, SilentSlaveCountsNoResponse) {
  attach("master");
  const auto slave = bus.attach("dead", nullptr);
  bus.set_publisher(0x5, slave,
                    [] { return std::optional<std::vector<std::uint8_t>>{}; });
  bus.set_schedule({0x5});
  bus.start();
  engine.run_until(SimTime(35'000));
  EXPECT_EQ(bus.no_responses(), 3u);
  EXPECT_EQ(bus.responses(), 0u);
  EXPECT_TRUE(received.empty());
}

TEST_F(LinTest, UnpublishedFrameIsNoResponse) {
  attach("master");
  bus.set_schedule({0x9});
  bus.start();
  engine.run_until(SimTime(15'000));
  EXPECT_EQ(bus.no_responses(), 1u);
}

TEST_F(LinTest, PublisherDoesNotReceiveOwnResponse) {
  const auto slave = bus.attach("slave", nullptr);
  std::vector<std::uint32_t> slave_rx;
  // Re-attach with a handler via a second endpoint to verify exclusion.
  bus.set_publisher(0x1, slave, [] {
    return std::optional<std::vector<std::uint8_t>>{{7}};
  });
  attach("listener");
  bus.set_schedule({0x1});
  bus.start();
  engine.run_until(SimTime(15'000));
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0].first, "listener");
}

TEST_F(LinTest, ConfigErrorsRejected) {
  const auto slave = bus.attach("slave", nullptr);
  bus.set_publisher(0x1, slave, [] {
    return std::optional<std::vector<std::uint8_t>>{{1}};
  });
  EXPECT_THROW(bus.set_publisher(0x1, slave, nullptr), std::logic_error);
  EXPECT_THROW(bus.set_publisher(0x2, 99, nullptr), std::invalid_argument);
  EXPECT_THROW(bus.start(), std::logic_error);  // empty schedule
  bus.set_schedule({0x1});
  bus.start();
  EXPECT_THROW(bus.set_schedule({0x2}), std::logic_error);
  EXPECT_THROW(bus.start(), std::logic_error);
  bus.stop();
  EXPECT_FALSE(bus.running());
}

TEST_F(LinTest, StopHaltsPolling) {
  attach("master");
  const auto slave = bus.attach("slave", nullptr);
  bus.set_publisher(0x1, slave, [] {
    return std::optional<std::vector<std::uint8_t>>{{1}};
  });
  bus.set_schedule({0x1});
  bus.start();
  engine.run_until(SimTime(25'000));
  bus.stop();
  EXPECT_EQ(engine.pending_events(), 0u);
  engine.run_until(SimTime(100'000));
  EXPECT_EQ(bus.polls(), 2u);
}

}  // namespace
}  // namespace easis::bus
