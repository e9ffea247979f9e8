#include "telemetry/attribution.hpp"

#include <unordered_map>

namespace easis::telemetry {

std::vector<DetectionChain> attribute_chains(const EventLog& events) {
  std::vector<DetectionChain> chains;
  std::unordered_map<InjectionId, std::size_t> index;

  auto chain_of = [&](InjectionId id) -> DetectionChain& {
    auto [it, inserted] = index.try_emplace(id, chains.size());
    if (inserted) {
      chains.emplace_back();
      chains.back().injection = id;
    }
    return chains[it->second];
  };

  for (const Event& event : events) {
    if (!event.injection.valid()) continue;
    DetectionChain& chain = chain_of(event.injection);
    switch (event.kind) {
      case EventKind::kFaultArmed:
        if (chain.fault.empty()) chain.fault = event.detail;
        break;
      case EventKind::kFaultApplied:
        if (!chain.applied) {
          chain.applied = true;
          chain.applied_at = event.time;
          if (chain.fault.empty()) chain.fault = event.detail;
        }
        break;
      default:
        if (is_detection(event.kind) && !chain.detected) {
          chain.detected = true;
          chain.first_detection_at = event.time;
          chain.first_detector = event.component;
          chain.detection_detail = event.detail;
        } else if (is_treatment(event.kind) && chain.detected &&
                   !chain.treated) {
          // Treatments only count once the fault is on record; a reset
          // performed for an earlier, differently-attributed fault never
          // starts a chain of its own.
          chain.treated = true;
          chain.first_treatment_at = event.time;
          chain.treatment_detail = event.detail;
        }
        break;
    }
  }
  return chains;
}

const std::vector<double>& latency_buckets_ms() {
  static const std::vector<double> buckets{1,  2,   5,   10,  20,
                                           50, 100, 200, 500, 1000};
  return buckets;
}

namespace {

/// Resource-snapshot details read `<resource> level_pct=<n> ...`; returns
/// the level or a negative value for foreign detail formats.
double parse_level_pct(const std::string& detail) {
  const auto key = detail.find("level_pct=");
  if (key == std::string::npos) return -1.0;
  try {
    return std::stod(detail.substr(key + 10));
  } catch (...) {
    return -1.0;
  }
}

const std::vector<double>& level_buckets_pct() {
  static const std::vector<double> buckets{10, 25, 50, 75, 90, 95, 100};
  return buckets;
}

}  // namespace

void replay_into_metrics(const EventLog& events, MetricsRegistry& registry) {
  for (const Event& event : events) {
    registry
        .counter("easis_events_total",
                 "component=\"" + std::string(to_string(event.component)) +
                     "\",kind=\"" + std::string(to_string(event.kind)) + "\"")
        .inc();
    if (event.kind == EventKind::kResourceSnapshot) {
      const double level = parse_level_pct(event.detail);
      const std::string resource =
          event.detail.substr(0, event.detail.find(' '));
      if (level >= 0.0 && !resource.empty()) {
        registry
            .histogram("easis_resource_level_pct",
                       "resource=\"" + resource + "\"", level_buckets_pct())
            .observe(level);
      }
    }
  }

  for (const DetectionChain& chain : attribute_chains(events)) {
    if (!chain.applied) continue;
    registry.counter("easis_injections_total").inc();
    if (!chain.detected) continue;
    registry.counter("easis_injections_detected_total").inc();
    if (const auto latency = chain.fault_to_detection()) {
      registry
          .histogram("easis_fault_to_detection_latency_ms",
                     "detector=\"" +
                         std::string(to_string(chain.first_detector)) + "\"",
                     latency_buckets_ms())
          .observe(static_cast<double>(latency->as_micros()) / 1000.0);
    }
    if (!chain.treated) continue;
    registry.counter("easis_injections_treated_total").inc();
    if (const auto latency = chain.detection_to_treatment()) {
      registry
          .histogram("easis_detection_to_treatment_latency_ms", "",
                     latency_buckets_ms())
          .observe(static_cast<double>(latency->as_micros()) / 1000.0);
    }
  }
}

}  // namespace easis::telemetry
