#include "policy/policy.hpp"

#include <string>
#include <type_traits>
#include <utility>

#include "util/text.hpp"

namespace easis::policy {

namespace {

/// Builds canonical text. Doubles print as their shortest decimal form
/// that parses back to exactly the same value (canonical-text requirement:
/// 0.9 prints as "0.9", not "0.90000000000000002", yet still round-trips
/// bit-exactly).
class Writer {
 public:
  void section(std::string_view name) {
    if (!first_) out_ += '\n';
    first_ = false;
    util::append(out_, '[', name, "]\n");
  }
  void check_section(std::string_view name) {
    util::append(out_, "\n[check \"", name, "\"]\n");
  }
  void mode_section(std::string_view name) {
    if (!first_) out_ += '\n';
    first_ = false;
    util::append(out_, "[mode.", name, "]\n");
  }
  template <typename T,
            typename = std::enable_if_t<std::is_integral_v<T>>>
  void key(std::string_view k, T v) {
    util::append(out_, k, " = ", static_cast<std::uint64_t>(v), '\n');
  }
  void key(std::string_view k, double v) {
    util::append(out_, k, " = ");
    util::append_shortest(out_, v);
    out_ += '\n';
  }
  void key(std::string_view k, std::string_view v) {
    util::append(out_, k, " = ", v, '\n');
  }
  /// The text written so far; leaves the writer empty.
  [[nodiscard]] std::string release() { return std::move(out_); }

 private:
  std::string out_;
  bool first_ = true;
};

/// Canonical text fragment of one mode overlay — shared between to_text()
/// and overlay_hash() so the activation hash covers exactly what the
/// compiler round-trips.
void append_mode(Writer& w, const ModeOverlay& overlay) {
  w.mode_section(overlay.mode);
  w.key("hbm_scale", overlay.hbm_scale);
  w.key("aliveness_tolerance", overlay.aliveness_tolerance);
  w.key("arrival_tolerance", overlay.arrival_tolerance);
  w.key("deadline_scale", overlay.deadline_scale);
  w.key("aliveness_armed", overlay.aliveness_armed ? "true" : "false");
  w.key("silent_max_arrivals", overlay.silent_max_arrivals);
  w.key("checks_enabled", overlay.checks_enabled ? "true" : "false");
  w.key("max_dwell_ms",
        static_cast<std::uint64_t>(overlay.max_dwell.as_micros() / 1000));
  w.key("transition_deadline_ms",
        static_cast<std::uint64_t>(overlay.transition_deadline.as_micros() /
                                   1000));
}

std::uint64_t fnv1a(std::string_view text) {
  std::uint64_t hash = 14695981039346656037ull;
  for (char c : text) {
    hash ^= static_cast<std::uint8_t>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

}  // namespace

std::string to_text(const PolicySet& policy) {
  Writer w;
  w.section("policy");
  w.key("id", policy.id);
  w.key("version", policy.version);

  const wdg::WatchdogConfig& wd = policy.detection.watchdog;
  w.section("detection");
  w.key("check_period_ms",
        static_cast<std::uint64_t>(wd.check_period.as_micros() / 1000));
  w.key("aliveness_threshold", wd.aliveness_threshold);
  w.key("arrival_rate_threshold", wd.arrival_rate_threshold);
  w.key("program_flow_threshold", wd.program_flow_threshold);
  w.key("accumulated_aliveness_threshold", wd.accumulated_aliveness_threshold);
  w.key("deadline_threshold", wd.deadline_threshold);
  w.key("communication_threshold", wd.communication_threshold);
  w.key("nvm_corruption_threshold", wd.nvm_corruption_threshold);
  w.key("resource_threshold", wd.resource_threshold);
  w.key("environment_threshold", wd.environment_threshold);
  w.key("check_rule_threshold", wd.check_rule_threshold);
  w.key("power_mode_threshold", wd.power_mode_threshold);
  w.key("ecu_faulty_task_limit", wd.ecu_faulty_task_limit);
  w.key("hbm_scale", policy.detection.hbm_scale);
  w.key("aliveness_tolerance", policy.detection.aliveness_tolerance);
  w.key("arrival_tolerance", policy.detection.arrival_tolerance);
  w.key("deadline_scale", policy.detection.deadline_scale);

  w.section("severity");
  for (std::size_t i = 0; i < wdg::kErrorTypeCount; ++i) {
    w.key(wdg::to_string(static_cast<wdg::ErrorType>(i)),
          wdg::to_string(wd.severities[i]));
  }

  const wdg::ResourceLimits& res = policy.detection.resource;
  w.section("resource");
  w.key("watermark", res.watermark);
  w.key("window_cycles", res.window_cycles);
  w.key("leak_rate_per_s", res.leak_rate_per_s);
  w.key("leak_window_cycles", res.leak_window_cycles);

  const wdg::ThermalLimits& th = policy.detection.thermal;
  w.section("thermal");
  w.key("warn_c", th.warn_c);
  w.key("derate_c", th.derate_c);
  w.key("shutdown_c", th.shutdown_c);
  w.key("hysteresis_c", th.hysteresis_c);
  w.key("min_plausible_c", th.min_plausible_c);
  w.key("max_plausible_c", th.max_plausible_c);
  w.key("stuck_cycles", th.stuck_cycles);
  w.key("stuck_epsilon_c", th.stuck_epsilon_c);
  w.key("sensor_invalid_derate_cycles", th.sensor_invalid_derate_cycles);

  const wdg::FilesystemLimits& fs = policy.detection.filesystem;
  w.section("filesystem");
  w.key("fill_watermark", fs.fill_watermark);
  w.key("window_cycles", fs.window_cycles);
  w.key("wear_watermark", fs.wear_watermark);

  const fmf::FmfConfig& fc = policy.escalation.fmf;
  w.section("escalation");
  w.key("fault_log_capacity",
        static_cast<std::uint64_t>(fc.fault_log_capacity));
  w.key("max_ecu_resets", fc.max_ecu_resets);
  w.key("storm_reset_limit", fc.storm_reset_limit);
  w.key("storm_window_ms",
        static_cast<std::uint64_t>(fc.storm_window.as_micros() / 1000));
  w.key("restart_aging_ms",
        static_cast<std::uint64_t>(fc.restart_aging.as_micros() / 1000));
  w.key("recovery_warmup_cycles", fc.recovery_warmup_cycles);
  w.key("derate_hbm_stretch", policy.escalation.derate_hbm_stretch);

  w.section("treatment");
  w.key("safety", to_string(policy.treatment.safety.on_faulty));
  w.key("safety_max_restarts", policy.treatment.safety.max_restarts);
  w.key("assist", to_string(policy.treatment.assist.on_faulty));
  w.key("assist_max_restarts", policy.treatment.assist.max_restarts);
  w.key("qm", to_string(policy.treatment.qm.on_faulty));
  w.key("qm_max_restarts", policy.treatment.qm.max_restarts);

  for (const ModeOverlay& overlay : policy.modes) append_mode(w, overlay);

  for (const CheckRule& check : policy.checks) {
    w.check_section(check.name);
    w.key("signal", check.signal);
    w.key("min", check.min);
    w.key("max", check.max);
    w.key("fallback", check.fallback);
    w.key("period_cycles", check.period_cycles);
    w.key("deadline_ms",
          static_cast<std::uint64_t>(check.deadline.as_micros() / 1000));
    if (check.rate_bounded) {
      w.key("rate_min_per_s", check.rate_min_per_s);
      w.key("rate_max_per_s", check.rate_max_per_s);
    }
  }
  return w.release();
}

std::uint64_t version_hash(const PolicySet& policy) {
  // FNV-1a, 64-bit (offset basis / prime per the reference parameters).
  return fnv1a(to_text(policy));
}

std::uint32_t version_hash24(const PolicySet& policy) {
  const std::uint64_t h = version_hash(policy);
  return static_cast<std::uint32_t>((h ^ (h >> 24) ^ (h >> 48)) & 0xFFFFFFu);
}

std::uint64_t overlay_hash(const ModeOverlay& overlay) {
  Writer w;
  append_mode(w, overlay);
  return fnv1a(w.release());
}

std::uint32_t overlay_hash24(const ModeOverlay& overlay) {
  const std::uint64_t h = overlay_hash(overlay);
  return static_cast<std::uint32_t>((h ^ (h >> 24) ^ (h >> 48)) & 0xFFFFFFu);
}

const ModeOverlay* find_mode(const PolicySet& policy, std::string_view mode) {
  for (const ModeOverlay& overlay : policy.modes) {
    if (overlay.mode == mode) return &overlay;
  }
  return nullptr;
}

const PolicySet& baseline() {
  static const PolicySet kBaseline{};
  return kBaseline;
}

std::string baseline_text() { return to_text(baseline()); }

}  // namespace easis::policy
