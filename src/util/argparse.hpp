// Minimal shared CLI-flag parser for the bench/campaign binaries.
//
// Every campaign binary takes the same quartet (--jobs, --seed, --runs,
// --csv); before this existed each bench hand-rolled its own argv walk.
// Flags are long-form only, `--name value` or `--name=value`; `--help`
// prints a generated usage text and parse() reports it via exited().
#pragma once

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

namespace easis::util {

class ArgParser {
 public:
  explicit ArgParser(std::string program, std::string description = "");

  /// Registers a flag bound to `value`; the bound default is what --help
  /// shows. Supported types: std::uint64_t, std::int64_t, unsigned, double,
  /// bool (value-less switch), std::string. Registering a name twice is a
  /// programming error and throws std::logic_error.
  void add(const std::string& name, std::uint64_t* value,
           const std::string& help);
  void add(const std::string& name, std::int64_t* value,
           const std::string& help);
  void add(const std::string& name, unsigned* value, const std::string& help);
  void add(const std::string& name, double* value, const std::string& help);
  void add(const std::string& name, bool* value, const std::string& help);
  void add(const std::string& name, std::string* value,
           const std::string& help);

  /// Parses argv. Returns false on an unknown flag, a missing or malformed
  /// value, or --help; diagnostics/usage go to `err`. An unknown flag is
  /// never ignored: the diagnostic is followed by the generated --help
  /// listing of every registered flag (including grouped flags such as
  /// util::TelemetryFlags). Callers should exit with exited() ? 0 : 2 when
  /// parse() fails.
  [[nodiscard]] bool parse(int argc, const char* const* argv,
                           std::ostream& err);

  /// True when parse() returned false because of --help (exit 0, not 2).
  [[nodiscard]] bool exited() const { return help_requested_; }

  void print_usage(std::ostream& out) const;

 private:
  struct Flag {
    std::string name;
    std::string help;
    std::string default_text;
    bool takes_value = true;
    // Returns false when `text` does not parse as the flag's type.
    std::function<bool(const std::string& text)> assign;
  };

  void add_flag(Flag flag);
  [[nodiscard]] Flag* find(const std::string& name);

  std::string program_;
  std::string description_;
  std::vector<Flag> flags_;
  bool help_requested_ = false;
};

/// Shared telemetry flag group: every campaign binary exposes the same
/// --log-level / --events-out / --metrics-out / --flight-prefix surface.
/// register_flags() adds them to a parser; after a successful parse, call
/// apply_log_level() to push --log-level into the global Logger.
struct TelemetryFlags {
  /// Logger level name; empty = leave the process default untouched.
  std::string log_level;
  /// Structured event log path; empty = skip the export.
  std::string events_out;
  /// Metrics export path; empty = skip. ".csv" suffix selects the CSV
  /// format, anything else gets Prometheus exposition text.
  std::string metrics_out;
  /// Prefix for per-run flight-recorder dumps; empty = derive from the
  /// result CSV path.
  std::string flight_prefix;
  /// Chrome trace-event JSON path (Perfetto-loadable); empty = skip.
  /// Wall-clock artifact, never byte-compared across --jobs.
  std::string trace_out;
  /// Profile rollup CSV path (per-span min/mean/p99 across runs); empty =
  /// skip. Wall-clock artifact.
  std::string profile_csv;
  /// Deterministic profile shape CSV path (kind,span,depth,hits,runs);
  /// empty = skip. Byte-identical across --jobs — the determinism-gate
  /// artifact.
  std::string profile_shape;

  /// True when any profiling export was requested, i.e. the campaign must
  /// run with the hot-path profiler installed.
  [[nodiscard]] bool profiling_requested() const {
    return !trace_out.empty() || !profile_csv.empty() ||
           !profile_shape.empty();
  }

  void register_flags(ArgParser& parser);

  /// Applies --log-level to Logger::instance(). Returns false (with a
  /// diagnostic on `err`) for an unknown level name.
  [[nodiscard]] bool apply_log_level(std::ostream& err) const;
};

}  // namespace easis::util
