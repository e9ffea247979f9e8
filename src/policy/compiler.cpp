#include "policy/compiler.hpp"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <map>
#include <set>
#include <sstream>

namespace easis::policy {

namespace {

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() &&
         (s.back() == ' ' || s.back() == '\t' || s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

bool parse_u64(const std::string& text, std::uint64_t& out) {
  if (text.empty() || text[0] == '-') return false;
  char* end = nullptr;
  out = std::strtoull(text.c_str(), &end, 10);
  return end != nullptr && *end == '\0';
}

bool parse_f64(const std::string& text, double& out) {
  if (text.empty()) return false;
  char* end = nullptr;
  out = std::strtod(text.c_str(), &end);
  return end != nullptr && *end == '\0' && std::isfinite(out);
}

/// Stateful single-pass parser; collects every diagnostic before deciding.
class Compiler {
 public:
  CompileResult run(std::string_view text) {
    std::size_t line_no = 0;
    std::size_t pos = 0;
    while (pos <= text.size()) {
      const std::size_t nl = text.find('\n', pos);
      const std::string_view raw =
          text.substr(pos, nl == std::string_view::npos ? nl : nl - pos);
      ++line_no;
      handle_line(trim(raw), line_no);
      if (nl == std::string_view::npos) break;
      pos = nl + 1;
    }
    finalize();
    CompileResult result;
    result.diagnostics = std::move(diags_);
    if (result.diagnostics.empty()) result.policy = std::move(policy_);
    return result;
  }

 private:
  PolicySet policy_;
  std::vector<Diagnostic> diags_;
  std::string section_;
  std::size_t section_line_ = 0;
  std::set<std::string> seen_sections_;
  std::set<std::string> seen_keys_;  // current section instance
  /// "section.key" -> line, for cross-key conflict diagnostics.
  std::map<std::string, std::size_t> key_lines_;
  bool in_check_ = false;

  void error(std::size_t line, std::string message) {
    diags_.push_back(Diagnostic{line, std::move(message)});
  }

  void handle_line(std::string_view line, std::size_t line_no) {
    if (line.empty() || line.front() == '#' || line.front() == ';') return;
    if (line.front() == '[') {
      open_section(line, line_no);
      return;
    }
    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      error(line_no, "expected `key = value` or `[section]`, got `" +
                         std::string(line) + "`");
      return;
    }
    const std::string key{trim(line.substr(0, eq))};
    const std::string value{trim(line.substr(eq + 1))};
    if (key.empty()) {
      error(line_no, "empty key before `=`");
      return;
    }
    if (section_.empty()) {
      error(line_no, "`" + key + "` appears before any [section]");
      return;
    }
    if (!seen_keys_.insert(key).second) {
      error(line_no, "duplicate key `" + key + "` in [" + section_ + "]");
      return;
    }
    key_lines_[section_ + "." + key] = line_no;
    handle_key(key, value, line_no);
  }

  void open_section(std::string_view line, std::size_t line_no) {
    if (line.back() != ']') {
      error(line_no, "unterminated section header");
      return;
    }
    const std::string_view body = trim(line.substr(1, line.size() - 2));
    seen_keys_.clear();
    section_line_ = line_no;
    if (body.rfind("check", 0) == 0 && body.size() > 5) {
      open_check(trim(body.substr(5)), line_no);
      return;
    }
    if (body.rfind("mode.", 0) == 0) {
      open_mode(trim(body.substr(5)), line_no);
      return;
    }
    in_check_ = false;
    section_ = std::string(body);
    static const std::set<std::string> kSections{
        "policy",     "detection", "severity",   "resource",
        "thermal",    "filesystem", "escalation", "treatment"};
    if (kSections.count(section_) == 0) {
      error(line_no, "unknown section [" + section_ + "]");
      // Swallow this section's keys without key errors.
      section_.assign(1, '?');
      return;
    }
    if (!seen_sections_.insert(section_).second) {
      error(line_no, "duplicate section [" + section_ + "]");
    }
  }

  void open_check(std::string_view name_part, std::size_t line_no) {
    if (name_part.size() < 2 || name_part.front() != '"' ||
        name_part.back() != '"') {
      error(line_no, "check section needs a quoted name: [check \"name\"]");
      section_.assign(1, '?');
      in_check_ = false;
      return;
    }
    const std::string name{name_part.substr(1, name_part.size() - 2)};
    if (name.empty()) {
      error(line_no, "check rule name must not be empty");
      section_.assign(1, '?');
      in_check_ = false;
      return;
    }
    for (const CheckRule& rule : policy_.checks) {
      if (rule.name == name) {
        error(line_no, "conflicting check rules: duplicate name \"" + name +
                           "\" (first defined earlier)");
      }
    }
    section_ = "check";
    in_check_ = true;
    CheckRule rule;
    rule.name = name;
    policy_.checks.push_back(std::move(rule));
  }

  void open_mode(std::string_view name_part, std::size_t line_no) {
    in_check_ = false;
    const std::string name{name_part};
    bool well_formed = !name.empty();
    for (char c : name) {
      if (!(std::islower(static_cast<unsigned char>(c)) != 0 ||
            std::isdigit(static_cast<unsigned char>(c)) != 0 || c == '_')) {
        well_formed = false;
      }
    }
    if (!well_formed) {
      error(line_no, "mode section needs a lower-case identifier: "
                     "[mode.<name>], got [mode." +
                         name + "]");
      section_.assign(1, '?');
      return;
    }
    for (const ModeOverlay& overlay : policy_.modes) {
      if (overlay.mode == name) {
        error(line_no, "conflicting mode overlays: duplicate [mode." + name +
                           "] (first defined earlier)");
      }
    }
    section_ = "mode";
    ModeOverlay overlay;
    overlay.mode = name;
    policy_.modes.push_back(std::move(overlay));
  }

  // --- typed setters with range validation --------------------------------
  template <typename T>
  void set_uint(T& dst, const std::string& key, const std::string& value,
                std::size_t line, std::uint64_t lo, std::uint64_t hi) {
    std::uint64_t v = 0;
    if (!parse_u64(value, v)) {
      error(line, "`" + key + "` expects an unsigned integer, got `" + value +
                      "`");
      return;
    }
    if (v < lo || v > hi) {
      error(line, "`" + key + "` = " + value + " out of range [" +
                      std::to_string(lo) + ", " + std::to_string(hi) + "]");
      return;
    }
    dst = static_cast<T>(v);
  }

  void set_f64(double& dst, const std::string& key, const std::string& value,
               std::size_t line, double lo, double hi) {
    double v = 0.0;
    if (!parse_f64(value, v)) {
      error(line, "`" + key + "` expects a finite number, got `" + value +
                      "`");
      return;
    }
    if (v < lo || v > hi) {
      std::ostringstream os;
      os << '`' << key << "` = " << value << " out of range [" << lo << ", "
         << hi << ']';
      error(line, os.str());
      return;
    }
    dst = v;
  }

  void set_ms(sim::Duration& dst, const std::string& key,
              const std::string& value, std::size_t line, std::uint64_t lo,
              std::uint64_t hi) {
    std::uint64_t ms = 0;
    set_uint(ms, key, value, line, lo, hi);
    if (diags_.empty() || diags_.back().line != line) {
      dst = sim::Duration::millis(static_cast<std::int64_t>(ms));
    }
  }

  void set_severity(wdg::Severity& dst, const std::string& key,
                    const std::string& value, std::size_t line) {
    if (value == "info") {
      dst = wdg::Severity::kInfo;
    } else if (value == "minor") {
      dst = wdg::Severity::kMinor;
    } else if (value == "major") {
      dst = wdg::Severity::kMajor;
    } else if (value == "critical") {
      dst = wdg::Severity::kCritical;
    } else {
      error(line, "`" + key + "` expects info|minor|major|critical, got `" +
                      value + "`");
    }
  }

  void set_bool(bool& dst, const std::string& key, const std::string& value,
                std::size_t line) {
    if (value == "true") {
      dst = true;
    } else if (value == "false") {
      dst = false;
    } else {
      error(line,
            "`" + key + "` expects true|false, got `" + value + "`");
    }
  }

  void set_treatment(TreatmentKind& dst, const std::string& key,
                     const std::string& value, std::size_t line) {
    if (value == "none") {
      dst = TreatmentKind::kNone;
    } else if (value == "restart") {
      dst = TreatmentKind::kRestart;
    } else if (value == "park") {
      dst = TreatmentKind::kPark;
    } else if (value == "limp_home") {
      dst = TreatmentKind::kLimpHome;
    } else if (value == "safe_state") {
      dst = TreatmentKind::kSafeState;
    } else {
      error(line, "`" + key +
                      "` expects none|restart|park|limp_home|safe_state, "
                      "got `" +
                      value + "`");
    }
  }

  // --- per-section key dispatch --------------------------------------------
  void handle_key(const std::string& key, const std::string& value,
                  std::size_t line) {
    if (section_ == "?") return;  // section already diagnosed
    if (section_ == "policy") {
      handle_policy(key, value, line);
    } else if (section_ == "detection") {
      handle_detection(key, value, line);
    } else if (section_ == "severity") {
      handle_severity(key, value, line);
    } else if (section_ == "resource") {
      handle_resource(key, value, line);
    } else if (section_ == "thermal") {
      handle_thermal(key, value, line);
    } else if (section_ == "filesystem") {
      handle_filesystem(key, value, line);
    } else if (section_ == "escalation") {
      handle_escalation(key, value, line);
    } else if (section_ == "treatment") {
      handle_treatment(key, value, line);
    } else if (section_ == "check") {
      handle_check(key, value, line);
    } else if (section_ == "mode") {
      handle_mode(key, value, line);
    }
  }

  void unknown_key(const std::string& key, std::size_t line) {
    error(line, "unknown key `" + key + "` in [" + section_ + "]");
  }

  void handle_policy(const std::string& key, const std::string& value,
                     std::size_t line) {
    if (key == "id") {
      if (value.empty()) {
        error(line, "`id` must not be empty");
      } else {
        policy_.id = value;
      }
    } else if (key == "version") {
      set_uint(policy_.version, key, value, line, 1, 1u << 30);
    } else {
      unknown_key(key, line);
    }
  }

  void handle_detection(const std::string& key, const std::string& value,
                        std::size_t line) {
    wdg::WatchdogConfig& wd = policy_.detection.watchdog;
    if (key == "check_period_ms") {
      set_ms(wd.check_period, key, value, line, 1, 10000);
    } else if (key == "aliveness_threshold") {
      set_uint(wd.aliveness_threshold, key, value, line, 0, 1000);
    } else if (key == "arrival_rate_threshold") {
      set_uint(wd.arrival_rate_threshold, key, value, line, 0, 1000);
    } else if (key == "program_flow_threshold") {
      set_uint(wd.program_flow_threshold, key, value, line, 0, 1000);
    } else if (key == "accumulated_aliveness_threshold") {
      set_uint(wd.accumulated_aliveness_threshold, key, value, line, 0, 1000);
    } else if (key == "deadline_threshold") {
      set_uint(wd.deadline_threshold, key, value, line, 0, 1000);
    } else if (key == "communication_threshold") {
      set_uint(wd.communication_threshold, key, value, line, 0, 1000);
    } else if (key == "nvm_corruption_threshold") {
      set_uint(wd.nvm_corruption_threshold, key, value, line, 0, 1000);
    } else if (key == "resource_threshold") {
      set_uint(wd.resource_threshold, key, value, line, 0, 1000);
    } else if (key == "environment_threshold") {
      set_uint(wd.environment_threshold, key, value, line, 0, 1000);
    } else if (key == "check_rule_threshold") {
      set_uint(wd.check_rule_threshold, key, value, line, 0, 1000);
    } else if (key == "power_mode_threshold") {
      set_uint(wd.power_mode_threshold, key, value, line, 0, 1000);
    } else if (key == "ecu_faulty_task_limit") {
      set_uint(wd.ecu_faulty_task_limit, key, value, line, 1, 64);
    } else if (key == "hbm_scale") {
      set_f64(policy_.detection.hbm_scale, key, value, line, 0.01, 100.0);
    } else if (key == "aliveness_tolerance") {
      set_uint(policy_.detection.aliveness_tolerance, key, value, line, 0,
               100);
    } else if (key == "arrival_tolerance") {
      set_uint(policy_.detection.arrival_tolerance, key, value, line, 0, 100);
    } else if (key == "deadline_scale") {
      set_f64(policy_.detection.deadline_scale, key, value, line, 0.01,
              100.0);
    } else {
      unknown_key(key, line);
    }
  }

  void handle_severity(const std::string& key, const std::string& value,
                       std::size_t line) {
    for (std::size_t i = 0; i < wdg::kErrorTypeCount; ++i) {
      if (key == wdg::to_string(static_cast<wdg::ErrorType>(i))) {
        set_severity(policy_.detection.watchdog.severities[i], key, value,
                     line);
        return;
      }
    }
    unknown_key(key, line);
  }

  void handle_resource(const std::string& key, const std::string& value,
                       std::size_t line) {
    wdg::ResourceLimits& res = policy_.detection.resource;
    if (key == "watermark") {
      set_f64(res.watermark, key, value, line, 0.0, 1.0);
    } else if (key == "window_cycles") {
      set_uint(res.window_cycles, key, value, line, 1, 1000);
    } else if (key == "leak_rate_per_s") {
      set_f64(res.leak_rate_per_s, key, value, line, 0.0, 1.0e6);
    } else if (key == "leak_window_cycles") {
      set_uint(res.leak_window_cycles, key, value, line, 2, 10000);
    } else {
      unknown_key(key, line);
    }
  }

  void handle_thermal(const std::string& key, const std::string& value,
                      std::size_t line) {
    wdg::ThermalLimits& th = policy_.detection.thermal;
    if (key == "warn_c") {
      set_f64(th.warn_c, key, value, line, -100.0, 300.0);
    } else if (key == "derate_c") {
      set_f64(th.derate_c, key, value, line, -100.0, 300.0);
    } else if (key == "shutdown_c") {
      set_f64(th.shutdown_c, key, value, line, -100.0, 300.0);
    } else if (key == "hysteresis_c") {
      set_f64(th.hysteresis_c, key, value, line, 0.0, 100.0);
    } else if (key == "min_plausible_c") {
      set_f64(th.min_plausible_c, key, value, line, -273.0, 300.0);
    } else if (key == "max_plausible_c") {
      set_f64(th.max_plausible_c, key, value, line, -273.0, 500.0);
    } else if (key == "stuck_cycles") {
      set_uint(th.stuck_cycles, key, value, line, 1, 10000);
    } else if (key == "stuck_epsilon_c") {
      set_f64(th.stuck_epsilon_c, key, value, line, 0.0, 10.0);
    } else if (key == "sensor_invalid_derate_cycles") {
      set_uint(th.sensor_invalid_derate_cycles, key, value, line, 0, 10000);
    } else {
      unknown_key(key, line);
    }
  }

  void handle_filesystem(const std::string& key, const std::string& value,
                         std::size_t line) {
    wdg::FilesystemLimits& fs = policy_.detection.filesystem;
    if (key == "fill_watermark") {
      set_f64(fs.fill_watermark, key, value, line, 0.0, 1.0);
    } else if (key == "window_cycles") {
      set_uint(fs.window_cycles, key, value, line, 1, 1000);
    } else if (key == "wear_watermark") {
      set_f64(fs.wear_watermark, key, value, line, 0.0, 1.0);
    } else {
      unknown_key(key, line);
    }
  }

  void handle_escalation(const std::string& key, const std::string& value,
                         std::size_t line) {
    fmf::FmfConfig& fc = policy_.escalation.fmf;
    if (key == "fault_log_capacity") {
      set_uint(fc.fault_log_capacity, key, value, line, 1, 65536);
    } else if (key == "max_ecu_resets") {
      set_uint(fc.max_ecu_resets, key, value, line, 0, 1000);
    } else if (key == "storm_reset_limit") {
      set_uint(fc.storm_reset_limit, key, value, line, 0, 1000);
    } else if (key == "storm_window_ms") {
      set_ms(fc.storm_window, key, value, line, 0, 3600000);
    } else if (key == "restart_aging_ms") {
      set_ms(fc.restart_aging, key, value, line, 0, 3600000);
    } else if (key == "recovery_warmup_cycles") {
      set_uint(fc.recovery_warmup_cycles, key, value, line, 0, 10000);
    } else if (key == "derate_hbm_stretch") {
      set_uint(policy_.escalation.derate_hbm_stretch, key, value, line, 1,
               100);
    } else {
      unknown_key(key, line);
    }
  }

  void handle_treatment(const std::string& key, const std::string& value,
                        std::size_t line) {
    TreatmentPolicy& t = policy_.treatment;
    if (key == "safety") {
      set_treatment(t.safety.on_faulty, key, value, line);
    } else if (key == "safety_max_restarts") {
      set_uint(t.safety.max_restarts, key, value, line, 0, 1000);
    } else if (key == "assist") {
      set_treatment(t.assist.on_faulty, key, value, line);
    } else if (key == "assist_max_restarts") {
      set_uint(t.assist.max_restarts, key, value, line, 0, 1000);
    } else if (key == "qm") {
      set_treatment(t.qm.on_faulty, key, value, line);
    } else if (key == "qm_max_restarts") {
      set_uint(t.qm.max_restarts, key, value, line, 0, 1000);
    } else {
      unknown_key(key, line);
    }
  }

  void handle_check(const std::string& key, const std::string& value,
                    std::size_t line) {
    if (policy_.checks.empty()) return;  // header was diagnosed
    CheckRule& rule = policy_.checks.back();
    if (key == "signal") {
      if (value.empty()) {
        error(line, "check `signal` must not be empty");
      } else {
        rule.signal = value;
      }
    } else if (key == "min") {
      set_f64(rule.min, key, value, line, -1.0e12, 1.0e12);
    } else if (key == "max") {
      set_f64(rule.max, key, value, line, -1.0e12, 1.0e12);
    } else if (key == "fallback") {
      set_f64(rule.fallback, key, value, line, -1.0e12, 1.0e12);
    } else if (key == "period_cycles") {
      set_uint(rule.period_cycles, key, value, line, 1, 10000);
    } else if (key == "deadline_ms") {
      set_ms(rule.deadline, key, value, line, 1, 60000);
    } else if (key == "rate_min_per_s") {
      rule.rate_bounded = true;
      set_f64(rule.rate_min_per_s, key, value, line, -1.0e12, 1.0e12);
    } else if (key == "rate_max_per_s") {
      rule.rate_bounded = true;
      set_f64(rule.rate_max_per_s, key, value, line, -1.0e12, 1.0e12);
    } else {
      unknown_key(key, line);
    }
  }

  void handle_mode(const std::string& key, const std::string& value,
                   std::size_t line) {
    if (policy_.modes.empty()) return;  // header was diagnosed
    ModeOverlay& overlay = policy_.modes.back();
    if (key == "hbm_scale") {
      set_f64(overlay.hbm_scale, key, value, line, 0.01, 100.0);
    } else if (key == "aliveness_tolerance") {
      set_uint(overlay.aliveness_tolerance, key, value, line, 0, 100);
    } else if (key == "arrival_tolerance") {
      set_uint(overlay.arrival_tolerance, key, value, line, 0, 100);
    } else if (key == "deadline_scale") {
      set_f64(overlay.deadline_scale, key, value, line, 0.01, 100.0);
    } else if (key == "aliveness_armed") {
      set_bool(overlay.aliveness_armed, key, value, line);
    } else if (key == "silent_max_arrivals") {
      set_uint(overlay.silent_max_arrivals, key, value, line, 0, 1000);
    } else if (key == "checks_enabled") {
      set_bool(overlay.checks_enabled, key, value, line);
    } else if (key == "max_dwell_ms") {
      set_ms(overlay.max_dwell, key, value, line, 0, 86400000);
    } else if (key == "transition_deadline_ms") {
      set_ms(overlay.transition_deadline, key, value, line, 1, 60000);
    } else {
      unknown_key(key, line);
    }
  }

  [[nodiscard]] std::size_t line_of(const std::string& section_key) const {
    const auto it = key_lines_.find(section_key);
    return it == key_lines_.end() ? 0 : it->second;
  }

  /// Cross-key conflict validation once the whole file is parsed.
  void finalize() {
    const wdg::ThermalLimits& th = policy_.detection.thermal;
    if (!(th.warn_c < th.derate_c && th.derate_c < th.shutdown_c)) {
      std::ostringstream os;
      os << "conflicting thermal ladder: need warn_c < derate_c < "
            "shutdown_c, got "
         << th.warn_c << " / " << th.derate_c << " / " << th.shutdown_c;
      error(line_of("thermal.warn_c"), os.str());
    }
    if (!(th.min_plausible_c < th.max_plausible_c)) {
      error(line_of("thermal.min_plausible_c"),
            "thermal plausibility band is empty: min_plausible_c must be "
            "< max_plausible_c");
    }
    const std::uint32_t env_threshold =
        policy_.detection.watchdog.environment_threshold;
    if (env_threshold > 0 &&
        th.sensor_invalid_derate_cycles < env_threshold) {
      std::ostringstream os;
      os << "conflicting escalation rules: sensor_invalid_derate_cycles ("
         << th.sensor_invalid_derate_cycles
         << ") must be >= environment_threshold (" << env_threshold
         << ") so the FMF treatment lands before the precautionary derate";
      error(line_of("thermal.sensor_invalid_derate_cycles"), os.str());
    }
    const fmf::FmfConfig& fc = policy_.escalation.fmf;
    if (fc.storm_reset_limit > 0 &&
        fc.storm_window <= sim::Duration::zero()) {
      error(line_of("escalation.storm_reset_limit"),
            "conflicting escalation rules: storm_reset_limit > 0 needs "
            "storm_window_ms > 0");
    }
    for (const CheckRule& rule : policy_.checks) {
      if (rule.signal.empty()) {
        error(0, "check \"" + rule.name + "\" has no `signal`");
      }
      if (rule.min > rule.max) {
        std::ostringstream os;
        os << "check \"" << rule.name << "\" has an empty band: min ("
           << rule.min << ") > max (" << rule.max << ")";
        error(0, os.str());
      }
      if (rule.rate_bounded && rule.rate_min_per_s > rule.rate_max_per_s) {
        std::ostringstream os;
        os << "check \"" << rule.name
           << "\" has an empty rate band: rate_min_per_s ("
           << rule.rate_min_per_s << ") > rate_max_per_s ("
           << rule.rate_max_per_s << ")";
        error(0, os.str());
      }
    }
    for (const ModeOverlay& overlay : policy_.modes) {
      if (!overlay.aliveness_armed && overlay.aliveness_tolerance > 0) {
        error(0, "mode \"" + overlay.mode +
                     "\" sets aliveness_tolerance while aliveness_armed = "
                     "false: tolerance has no armed check to relax");
      }
      if (overlay.aliveness_armed && overlay.silent_max_arrivals > 0) {
        error(0, "mode \"" + overlay.mode +
                     "\" sets silent_max_arrivals while aliveness_armed = "
                     "true: the silence guard only runs during contracted "
                     "silence");
      }
    }
  }
};

}  // namespace

std::string CompileResult::format() const {
  std::ostringstream os;
  for (const Diagnostic& d : diagnostics) {
    os << "line " << d.line << ": " << d.message << '\n';
  }
  return os.str();
}

CompileResult compile_policy(std::string_view text) {
  return Compiler{}.run(text);
}

}  // namespace easis::policy
