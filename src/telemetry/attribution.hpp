// Latency attribution: reconstructs per-injection detection chains
// (injection -> first detection -> escalation -> treatment) from an event
// stream, and replays streams into a MetricsRegistry.
//
// This is the analysis half of the telemetry subsystem: the bus records
// *what happened*; attribution answers the paper's evaluation questions —
// was the fault detected, by which unit, how long from fault activation to
// first detection, and how long from detection to treatment.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "telemetry/event.hpp"
#include "telemetry/event_log.hpp"
#include "telemetry/metrics.hpp"

namespace easis::telemetry {

/// One injection's reconstructed chain. Stages are first-occurrence:
/// later detections/treatments of the same fault do not move the marks.
struct DetectionChain {
  InjectionId injection;
  /// Injection name, taken from the armed/applied event detail.
  std::string fault;

  bool applied = false;
  sim::SimTime applied_at;

  bool detected = false;
  sim::SimTime first_detection_at;
  Component first_detector = Component::kHarness;
  std::string detection_detail;

  bool treated = false;
  sim::SimTime first_treatment_at;
  std::string treatment_detail;

  [[nodiscard]] std::optional<sim::Duration> fault_to_detection() const {
    if (!applied || !detected) return std::nullopt;
    return first_detection_at - applied_at;
  }
  [[nodiscard]] std::optional<sim::Duration> detection_to_treatment() const {
    if (!detected || !treated) return std::nullopt;
    return first_treatment_at - first_detection_at;
  }
};

/// Scans a seq-ordered event stream and folds it into one chain per
/// InjectionId, in order of first appearance. Events without a valid
/// injection correlation are ignored.
[[nodiscard]] std::vector<DetectionChain> attribute_chains(
    const EventLog& events);

/// Fixed latency buckets (milliseconds) shared by every latency histogram,
/// so exports stay comparable across campaigns.
[[nodiscard]] const std::vector<double>& latency_buckets_ms();

/// Replays an event stream into `registry`:
///  * easis_events_total{component=...,kind=...} counters,
///  * easis_injections_total / _detected_total / _treated_total,
///  * easis_fault_to_detection_latency_ms{detector=...} and
///    easis_detection_to_treatment_latency_ms histograms.
void replay_into_metrics(const EventLog& events, MetricsRegistry& registry);

}  // namespace easis::telemetry
