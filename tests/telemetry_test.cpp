// Tests for the telemetry subsystem: event formatting, bus correlation,
// metrics export, event-log tails, latency attribution, and the
// end-to-end chain from an injected fault to its exported events.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "inject/faults.hpp"
#include "inject/injector.hpp"
#include "sim/engine.hpp"
#include "telemetry/attribution.hpp"
#include "telemetry/event.hpp"
#include "telemetry/event_bus.hpp"
#include "telemetry/event_log.hpp"
#include "telemetry/metrics.hpp"
#include "validator/central_node.hpp"

namespace easis {
namespace {

using telemetry::Component;
using telemetry::Event;
using telemetry::EventBus;
using telemetry::EventKind;
using telemetry::EventLog;
using telemetry::EventScope;
using telemetry::MetricsRegistry;

Event make_event(EventKind kind, std::int64_t t_micros,
                 Component component = Component::kHarness,
                 std::string detail = "") {
  Event event;
  event.kind = kind;
  event.time = sim::SimTime(t_micros);
  event.component = component;
  event.detail = std::move(detail);
  return event;
}

// --- Event formatting --------------------------------------------------------

TEST(Event, CanonicalLineFormat) {
  Event event;
  event.seq = 7;
  event.time = sim::SimTime(2'040'040);
  event.component = Component::kHeartbeatUnit;
  event.kind = EventKind::kErrorDetected;
  event.injection = InjectionId(0);
  event.runnable = RunnableId(3);
  event.task = TaskId(1);
  event.application = ApplicationId(2);
  event.detail = "aliveness";
  std::ostringstream out;
  telemetry::write_event_line(out, event);
  EXPECT_EQ(out.str(),
            "7 t=2040040 hbm error_detected inj=#0 run=#3 task=#1 app=#2 "
            "| aliveness");
}

TEST(Event, InvalidIdsRenderAsInvalid) {
  std::ostringstream out;
  out << make_event(EventKind::kFaultArmed, 0, Component::kInjector, "f");
  EXPECT_NE(out.str().find("inj=#invalid"), std::string::npos);
  EXPECT_NE(out.str().find("run=#invalid"), std::string::npos);
}

TEST(Event, KindClassification) {
  EXPECT_TRUE(telemetry::is_detection(EventKind::kErrorDetected));
  EXPECT_TRUE(telemetry::is_detection(EventKind::kTokenViolation));
  EXPECT_TRUE(telemetry::is_detection(EventKind::kHwWatchdogExpired));
  EXPECT_FALSE(telemetry::is_detection(EventKind::kFaultApplied));
  EXPECT_TRUE(telemetry::is_treatment(EventKind::kTreatmentAction));
  EXPECT_TRUE(telemetry::is_treatment(EventKind::kResetPerformed));
  EXPECT_TRUE(telemetry::is_treatment(EventKind::kStormLatched));
  EXPECT_FALSE(telemetry::is_treatment(EventKind::kErrorDetected));
}

// --- EventBus ----------------------------------------------------------------

TEST(EventBus, StampsMonotonicSequence) {
  EventBus bus;
  std::vector<Event> seen;
  bus.add_sink([&](const Event& e) { seen.push_back(e); });
  bus.publish(make_event(EventKind::kFaultArmed, 0));
  bus.publish(make_event(EventKind::kErrorDetected, 10));
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].seq, 0u);
  EXPECT_EQ(seen[1].seq, 1u);
  EXPECT_EQ(bus.events_published(), 2u);
}

TEST(EventBus, CorrelatesToLastAppliedInjection) {
  EventBus bus;
  std::vector<Event> seen;
  bus.add_sink([&](const Event& e) { seen.push_back(e); });

  // Before any fault is applied, events stay uncorrelated.
  bus.publish(make_event(EventKind::kErrorDetected, 0));
  Event applied = make_event(EventKind::kFaultApplied, 5);
  applied.injection = InjectionId(4);
  bus.publish(applied);
  // Later events inherit the active injection...
  bus.publish(make_event(EventKind::kErrorDetected, 10));
  // ...and stay correlated after the revert (fault effects outlive it).
  bus.publish(make_event(EventKind::kFaultReverted, 20));
  bus.publish(make_event(EventKind::kThresholdTrip, 30));
  // An explicit correlation set by the emitter is preserved.
  Event explicit_inj = make_event(EventKind::kErrorDetected, 40);
  explicit_inj.injection = InjectionId(9);
  bus.publish(explicit_inj);

  ASSERT_EQ(seen.size(), 6u);
  EXPECT_FALSE(seen[0].injection.valid());
  EXPECT_EQ(seen[2].injection, InjectionId(4));
  EXPECT_EQ(seen[3].injection, InjectionId(4));
  EXPECT_EQ(seen[4].injection, InjectionId(4));
  EXPECT_EQ(seen[5].injection, InjectionId(9));
}

TEST(EventBus, ResetRewindsSequenceAndCorrelation) {
  EventBus bus;
  std::vector<Event> seen;
  bus.add_sink([&](const Event& e) { seen.push_back(e); });
  Event applied = make_event(EventKind::kFaultApplied, 0);
  applied.injection = InjectionId(1);
  bus.publish(applied);
  bus.reset();
  EXPECT_EQ(bus.events_published(), 0u);
  EXPECT_FALSE(bus.active_injection().valid());
  // Sinks survive the reset.
  bus.publish(make_event(EventKind::kErrorDetected, 0));
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[1].seq, 0u);
  EXPECT_FALSE(seen[1].injection.valid());
}

TEST(EventScope, EmitIsNoOpWithoutScope) {
  ASSERT_EQ(telemetry::current_bus(), nullptr);
  EXPECT_FALSE(telemetry::enabled());
  telemetry::emit(make_event(EventKind::kErrorDetected, 0));  // must not crash
}

TEST(EventScope, InstallsAndRestores) {
  EventBus outer, inner;
  std::uint64_t outer_count = 0, inner_count = 0;
  outer.add_sink([&](const Event&) { ++outer_count; });
  inner.add_sink([&](const Event&) { ++inner_count; });
  {
    EventScope outer_scope(outer);
    EXPECT_TRUE(telemetry::enabled());
    EXPECT_EQ(telemetry::current_bus(), &outer);
    telemetry::emit(make_event(EventKind::kErrorDetected, 0));
    {
      // Scopes nest; the innermost bus wins.
      EventScope inner_scope(inner);
      EXPECT_EQ(telemetry::current_bus(), &inner);
      telemetry::emit(make_event(EventKind::kErrorDetected, 1));
    }
    EXPECT_EQ(telemetry::current_bus(), &outer);
    telemetry::emit(make_event(EventKind::kErrorDetected, 2));
  }
  EXPECT_EQ(telemetry::current_bus(), nullptr);
  EXPECT_EQ(outer_count, 2u);
  EXPECT_EQ(inner_count, 1u);
}

// --- Metrics -----------------------------------------------------------------

TEST(Metrics, CounterAndGauge) {
  MetricsRegistry registry;
  registry.counter("hits").inc();
  registry.counter("hits").inc(2);
  registry.gauge("temp").set(36.5);
  EXPECT_EQ(registry.counter("hits").value(), 3u);
  EXPECT_DOUBLE_EQ(registry.gauge("temp").value(), 36.5);
}

TEST(Metrics, HistogramLeSemantics) {
  telemetry::Histogram hist({1.0, 5.0, 10.0});
  hist.observe(0.5);   // le=1
  hist.observe(1.0);   // boundary counts as inside (v <= bound)
  hist.observe(7.0);   // le=10
  hist.observe(100.0); // +Inf only
  EXPECT_EQ(hist.cumulative_count(0), 2u);  // le=1
  EXPECT_EQ(hist.cumulative_count(1), 2u);  // le=5
  EXPECT_EQ(hist.cumulative_count(2), 3u);  // le=10
  EXPECT_EQ(hist.count(), 4u);
  EXPECT_DOUBLE_EQ(hist.sum(), 108.5);
}

TEST(Metrics, HistogramRejectsUnsortedBounds) {
  EXPECT_THROW(telemetry::Histogram({5.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(telemetry::Histogram({1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(telemetry::Histogram({}), std::invalid_argument);
}

TEST(Metrics, PrometheusExportIsSortedAndTyped) {
  MetricsRegistry registry;
  registry.counter("b_total", "kind=\"y\"").inc(2);
  registry.counter("b_total", "kind=\"x\"").inc(1);
  registry.counter("a_total").inc(5);
  registry.histogram("lat_ms", "", {1.0, 10.0}).observe(3.0);
  std::ostringstream out;
  registry.write_prometheus(out);
  EXPECT_EQ(out.str(),
            "# TYPE a_total counter\n"
            "a_total 5\n"
            "# TYPE b_total counter\n"
            "b_total{kind=\"x\"} 1\n"
            "b_total{kind=\"y\"} 2\n"
            "# TYPE lat_ms histogram\n"
            "lat_ms_bucket{le=\"1\"} 0\n"
            "lat_ms_bucket{le=\"10\"} 1\n"
            "lat_ms_bucket{le=\"+Inf\"} 1\n"
            "lat_ms_sum 3\n"
            "lat_ms_count 1\n");
}

TEST(Metrics, CsvExportMirrorsPrometheus) {
  MetricsRegistry registry;
  registry.counter("hits", "kind=\"a\"").inc(4);
  registry.histogram("lat_ms", "", {2.0}).observe(1.0);
  std::ostringstream out;
  registry.write_csv(out);
  EXPECT_EQ(out.str(),
            "metric,labels,field,value\n"
            "hits,\"kind=\"\"a\"\"\",value,4\n"
            "lat_ms,,le_2,1\n"
            "lat_ms,,le_inf,1\n"
            "lat_ms,,sum,1\n"
            "lat_ms,,count,1\n"
            "lat_ms,,summary,count=1;sum=1;min=1;max=1\n");
}

TEST(Metrics, HistogramTracksMinAndMax) {
  telemetry::Histogram hist({10.0});
  EXPECT_DOUBLE_EQ(hist.min(), 0.0);  // empty histogram reads as zeros
  EXPECT_DOUBLE_EQ(hist.max(), 0.0);
  hist.observe(4.0);
  EXPECT_DOUBLE_EQ(hist.min(), 4.0);
  EXPECT_DOUBLE_EQ(hist.max(), 4.0);
  hist.observe(-2.5);
  hist.observe(100.0);
  EXPECT_DOUBLE_EQ(hist.min(), -2.5);
  EXPECT_DOUBLE_EQ(hist.max(), 100.0);
}

TEST(Metrics, CsvSummaryLineCoversTheDistribution) {
  MetricsRegistry registry;
  auto& hist = registry.histogram("step_us", "phase=\"run\"", {50.0});
  hist.observe(12.0);
  hist.observe(3.0);
  hist.observe(47.0);
  std::ostringstream out;
  registry.write_csv(out);
  EXPECT_NE(out.str().find(
                "step_us,\"phase=\"\"run\"\"\",summary,count=3;sum=62;min=3;max=47\n"),
            std::string::npos);
  // Prometheus export stays untouched: no "summary" series leaks there.
  std::ostringstream prom;
  registry.write_prometheus(prom);
  EXPECT_EQ(prom.str().find("summary"), std::string::npos);
}

// --- EventLog ----------------------------------------------------------------

std::string line_of(const Event& event) {
  std::ostringstream out;
  telemetry::write_event_line(out, event);
  return out.str();
}

TEST(EventLog, RoundTripsEveryField) {
  Event event;
  event.seq = 0x1'0000'0002;  // wider than 32 bits
  event.time = sim::SimTime(-5);
  event.component = Component::kModeUnit;
  event.kind = EventKind::kModeOverlayApplied;
  event.injection = InjectionId(4);
  event.runnable = RunnableId(3);
  event.task = TaskId(2);
  event.application = ApplicationId(1);
  event.detail = "overlay=abcdef";

  EventLog log;
  log.push_back(event);
  ASSERT_EQ(log.size(), 1u);
  const Event back = log[0];
  EXPECT_EQ(back.seq, event.seq);
  EXPECT_EQ(back.time, event.time);
  EXPECT_EQ(back.component, event.component);
  EXPECT_EQ(back.kind, event.kind);
  EXPECT_EQ(back.injection, event.injection);
  EXPECT_EQ(back.runnable, event.runnable);
  EXPECT_EQ(back.task, event.task);
  EXPECT_EQ(back.application, event.application);
  EXPECT_EQ(back.detail, event.detail);
  EXPECT_EQ(line_of(back), line_of(event));
}

TEST(EventLog, KeepsEmptyAndLongDetailsApart) {
  // Longer than any small-string buffer, so the arena is the only copy.
  const std::string long_detail(200, 'x');
  EventLog log;
  log.push_back(make_event(EventKind::kFaultArmed, 0, Component::kInjector,
                           ""));
  log.push_back(make_event(EventKind::kFaultApplied, 1, Component::kInjector,
                           long_detail));
  log.push_back(make_event(EventKind::kErrorDetected, 2));
  log.push_back(make_event(EventKind::kTreatmentAction, 3, Component::kFmf,
                           "restart"));
  ASSERT_EQ(log.size(), 4u);
  EXPECT_EQ(log[0].detail, "");
  EXPECT_EQ(log[1].detail, long_detail);
  EXPECT_EQ(log[2].detail, "");
  EXPECT_EQ(log.back().detail, "restart");
  EXPECT_EQ(log.front().kind, EventKind::kFaultArmed);

  // Range-for yields the events in append order.
  std::vector<std::int64_t> times;
  for (const Event& e : log) times.push_back(e.time.as_micros());
  EXPECT_EQ(times, (std::vector<std::int64_t>{0, 1, 2, 3}));

  log.clear();
  EXPECT_TRUE(log.empty());
  log.push_back(make_event(EventKind::kErrorDetected, 9, Component::kTsi,
                           "after clear"));
  EXPECT_EQ(log[0].detail, "after clear");
}

TEST(EventLog, RejectsADetailPast64KiB) {
  // A record stores the detail length in 16 bits: the longest detail
  // round-trips, one byte more is refused rather than truncated.
  const std::string longest(65'535, 'x');
  EventLog log;
  log.push_back(make_event(EventKind::kFaultApplied, 0, Component::kInjector,
                           longest));
  EXPECT_EQ(log[0].detail, longest);
  EXPECT_THROW(log.push_back(make_event(EventKind::kFaultApplied, 1,
                                        Component::kInjector, longest + "x")),
               std::length_error);
  EXPECT_EQ(log.size(), 1u);
}

TEST(EventLog, KeepsInvalidIdsInvalid) {
  EventLog log;
  log.push_back(make_event(EventKind::kErrorDetected, 7));
  const Event back = log[0];
  EXPECT_FALSE(back.injection.valid());
  EXPECT_FALSE(back.runnable.valid());
  EXPECT_FALSE(back.task.valid());
  EXPECT_FALSE(back.application.valid());
  EXPECT_EQ(line_of(back),
            "0 t=7 harness error_detected inj=#invalid run=#invalid "
            "task=#invalid app=#invalid | ");
}

EventLog log_of_errors(int count) {
  EventLog log;
  for (int i = 0; i < count; ++i) {
    log.push_back(make_event(EventKind::kErrorDetected, i));
  }
  return log;
}

TEST(EventLog, RepeatedDetailsReadBackAtEveryDistance) {
  // Details repeat at distances inside and past the sharing window, mixed
  // with equal-length different ones; each event keeps its own text, also
  // in a copy and in a tail.
  const std::vector<std::string> details = {"faulty", "ok", "faultz",
                                            "terminate RailMon", ""};
  std::vector<std::string> expected;
  EventLog log;
  for (int i = 0; i < 200; ++i) {
    const std::string& detail =
        details[static_cast<std::size_t>(i * i + i / 7) % details.size()];
    const std::string text = i % 40 == 39 ? "unique " + std::to_string(i)
                                          : detail;
    log.push_back(
        make_event(EventKind::kErrorDetected, i, Component::kFmf, text));
    expected.push_back(text);
  }
  const EventLog copy = log;
  const EventLog tail = log.tail(50);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(log[i].detail, expected[i]) << i;
    ASSERT_EQ(copy[i].detail, expected[i]) << i;
  }
  ASSERT_EQ(tail.size(), 50u);
  for (std::size_t i = 0; i < tail.size(); ++i) {
    ASSERT_EQ(tail[i].detail, expected[150 + i]) << i;
  }
}

TEST(EventLog, TailKeepsOnlyTheMostRecentEvents) {
  const EventLog events = log_of_errors(5).tail(3);
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events.front().time.as_micros(), 2);
  EXPECT_EQ(events.back().time.as_micros(), 4);
}

TEST(EventLog, TailOfAShortOrClearedLogIsAllOfIt) {
  EXPECT_EQ(log_of_errors(2).tail(3).size(), 2u);
  EXPECT_TRUE(log_of_errors(2).tail(0).empty());
  EventLog log = log_of_errors(2);
  log.clear();
  EXPECT_TRUE(log.tail(3).empty());
}

TEST(EventLog, FlightSnapshotKeepsSeqAndDetail) {
  EventLog log;
  for (int i = 0; i < 5; ++i) {
    Event event = make_event(EventKind::kErrorDetected, i * 10,
                             Component::kDeadlineUnit,
                             "deadline miss number " + std::to_string(i));
    event.seq = static_cast<std::uint64_t>(100 + i);
    log.push_back(event);
  }
  const EventLog snapshot = log.tail(3);
  ASSERT_EQ(snapshot.size(), 3u);
  for (std::size_t i = 0; i < snapshot.size(); ++i) {
    EXPECT_EQ(snapshot[i].seq, 102 + i);
    EXPECT_EQ(snapshot[i].detail,
              "deadline miss number " + std::to_string(i + 2));
    EXPECT_EQ(snapshot[i].component, Component::kDeadlineUnit);
  }
  // The tail is a log of its own: appending to it keeps every detail.
  EventLog grown = snapshot;
  grown.push_back(make_event(EventKind::kErrorDetected, 50,
                             Component::kDeadlineUnit, "appended"));
  EXPECT_EQ(grown[2].detail, "deadline miss number 4");
  EXPECT_EQ(grown[3].detail, "appended");
}

// --- Attribution -------------------------------------------------------------

EventLog synthetic_chain() {
  EventLog events;
  auto push = [&](Event e, std::uint32_t inj) {
    e.injection = InjectionId(inj);
    e.seq = events.size();
    events.push_back(e);
  };
  push(make_event(EventKind::kFaultArmed, 0, Component::kInjector, "hang"), 0);
  push(make_event(EventKind::kFaultApplied, 100, Component::kInjector, "hang"),
       0);
  push(make_event(EventKind::kErrorDetected, 250, Component::kHeartbeatUnit,
                  "aliveness"),
       0);
  // A second, later detection must not move the first-detection mark.
  push(make_event(EventKind::kErrorDetected, 400, Component::kProgramFlowUnit,
                  "program_flow"),
       0);
  push(make_event(EventKind::kTreatmentAction, 900, Component::kFmf,
                  "restart SafeSpeed"),
       0);
  // Second injection: applied but never detected.
  push(make_event(EventKind::kFaultApplied, 1'000, Component::kInjector,
                  "silent"),
       1);
  return events;
}

TEST(Attribution, ReconstructsChains) {
  const auto chains = telemetry::attribute_chains(synthetic_chain());
  ASSERT_EQ(chains.size(), 2u);

  const auto& hang = chains[0];
  EXPECT_EQ(hang.injection, InjectionId(0));
  EXPECT_EQ(hang.fault, "hang");
  EXPECT_TRUE(hang.applied);
  EXPECT_TRUE(hang.detected);
  EXPECT_EQ(hang.first_detector, Component::kHeartbeatUnit);
  EXPECT_EQ(hang.detection_detail, "aliveness");
  EXPECT_TRUE(hang.treated);
  ASSERT_TRUE(hang.fault_to_detection().has_value());
  EXPECT_EQ(hang.fault_to_detection()->as_micros(), 150);
  ASSERT_TRUE(hang.detection_to_treatment().has_value());
  EXPECT_EQ(hang.detection_to_treatment()->as_micros(), 650);

  const auto& silent = chains[1];
  EXPECT_TRUE(silent.applied);
  EXPECT_FALSE(silent.detected);
  EXPECT_FALSE(silent.fault_to_detection().has_value());
}

TEST(Attribution, IgnoresUncorrelatedEvents) {
  EventLog events;
  events.push_back(make_event(EventKind::kErrorDetected, 0));
  EXPECT_TRUE(telemetry::attribute_chains(events).empty());
}

TEST(Attribution, ReplayIntoMetricsCountsChains) {
  MetricsRegistry registry;
  telemetry::replay_into_metrics(synthetic_chain(), registry);
  EXPECT_EQ(registry.counter("easis_injections_total").value(), 2u);
  EXPECT_EQ(registry.counter("easis_injections_detected_total").value(), 1u);
  EXPECT_EQ(registry.counter("easis_injections_treated_total").value(), 1u);
  EXPECT_EQ(registry
                .counter("easis_events_total",
                         "component=\"injector\",kind=\"fault_applied\"")
                .value(),
            2u);
  auto& hist = registry.histogram("easis_fault_to_detection_latency_ms",
                                  "detector=\"hbm\"",
                                  telemetry::latency_buckets_ms());
  EXPECT_EQ(hist.count(), 1u);
  EXPECT_DOUBLE_EQ(hist.sum(), 0.15);  // 150 us
}

// --- End to end --------------------------------------------------------------

// An injected heartbeat suppression on the CentralNode must leave a fully
// correlated chain on the bus: fault_applied -> error_detected (same
// InjectionId) -> threshold_trip -> state changes.
TEST(TelemetryEndToEnd, InjectedFaultIsTraceable) {
  EventBus bus;
  EventLog events;
  bus.add_sink([&](const Event& e) { events.push_back(e); });
  EventScope scope(bus);

  sim::Engine engine;
  validator::CentralNodeConfig config;
  config.with_safelane = false;
  config.with_light_control = false;
  config.with_crash_detection = false;
  validator::CentralNode node(engine, config);

  inject::ErrorInjector injector(engine);
  injector.add(inject::make_heartbeat_suppression(
      node.rte(), node.safespeed().safe_cc_process(), sim::SimTime(2'000'000),
      sim::Duration::seconds(1)));
  injector.arm();

  node.start();
  engine.run_until(sim::SimTime(5'000'000));

  ASSERT_FALSE(events.empty());
  // Sequence numbers are dense and ordered.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, i);
  }

  const InjectionId inj(0);
  bool applied = false, detected = false, tripped = false, state = false;
  for (const Event& e : events) {
    if (e.kind == EventKind::kFaultApplied && e.injection == inj) {
      applied = true;
    }
    // The suppressed glue also carries the PFC checkpoint, so the program
    // flow unit races the heartbeat unit to the first detection (and its
    // report names the expected successor, not the suppressed runnable);
    // either way the event must correlate to the injection and point into
    // the attacked SafeSpeed task.
    if (e.kind == EventKind::kErrorDetected && e.injection == inj &&
        e.task == node.safespeed_task()) {
      detected = true;
    }
    if (e.kind == EventKind::kThresholdTrip && e.injection == inj) {
      tripped = true;
    }
    if (e.kind == EventKind::kTaskStateChange && e.injection == inj) {
      state = true;
    }
  }
  EXPECT_TRUE(applied);
  EXPECT_TRUE(detected);
  EXPECT_TRUE(tripped);
  EXPECT_TRUE(state);

  // The attribution pass agrees and yields a positive detection latency.
  const auto chains = telemetry::attribute_chains(events);
  ASSERT_FALSE(chains.empty());
  EXPECT_EQ(chains[0].injection, inj);
  EXPECT_TRUE(chains[0].detected);
  ASSERT_TRUE(chains[0].fault_to_detection().has_value());
  EXPECT_GT(chains[0].fault_to_detection()->as_micros(), 0);
}

}  // namespace
}  // namespace easis
