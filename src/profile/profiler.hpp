// Deterministic hot-path profiler (DESIGN.md §15).
//
// A Profiler owns the per-run profiling state of one worker thread: a span
// tree (name, nesting, hit counts, self/total wall time), lightweight named
// counters, and a bounded ring of raw span records for trace export. RAII
// ScopedSpans cost two steady_clock reads plus one ring write (without a
// ring, most spans skip both: see Config); counters cost one thread-local
// load and an indexed add. Instrumentation sites use the
// EASIS_PROFILE_SPAN / EASIS_PROFILE_COUNT macros, which compile to nothing
// when the tree is configured with EASIS_PROFILING=OFF (the zero-cost kill
// switch for production builds).
//
// Determinism contract: everything wall-clock (self/total nanoseconds, the
// raw records) is confined to profile/trace artifacts and never reaches a
// campaign result CSV. The *shape* of the data — span paths, nesting, hit
// counts, counter values — derives only from the simulated run, so it is
// bit-identical across --jobs values and is locked in by the
// profile_jobs_determinism ctest gate.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace easis::profile {

/// Process-global interned span/counter name. Ids are assigned in first-use
/// order (which may differ between processes and threads), so they are only
/// ever used as lookup keys; every export resolves them back to strings.
using NameId = std::uint32_t;

/// Interns `name` in the process-global registry (thread-safe); returns the
/// existing id when the name is already known.
[[nodiscard]] NameId intern_name(std::string_view name);

/// Resolves an interned id back to its name (thread-safe copy).
[[nodiscard]] std::string name_of(NameId id);

/// Everything one run's profiling produced, with names resolved. Plain data:
/// it travels inside harness::RunResult from the worker to the reduction.
struct RunProfile {
  /// One span-tree node per distinct (parent, name) path, in first-visit
  /// order — deterministic because the simulated run is.
  struct Node {
    std::string name;
    /// Index of the parent node, or -1 for a root.
    std::int32_t parent = -1;
    std::uint64_t hits = 0;
    /// Wall time including children (nondeterministic; artifact-only).
    std::int64_t total_ns = 0;
    /// Wall time excluding children (nondeterministic; artifact-only).
    std::int64_t self_ns = 0;
  };
  /// Named counter final values, sorted by name.
  struct CounterSample {
    std::string name;
    std::uint64_t value = 0;
  };
  /// One raw record per completed span, for trace export. `start_ns` is a
  /// steady_clock reading; exporters rebase it onto the campaign epoch.
  struct SpanRecord {
    std::uint32_t node = 0;
    std::int64_t start_ns = 0;
    std::int64_t dur_ns = 0;
  };

  std::vector<Node> nodes;
  std::vector<CounterSample> counters;
  /// Oldest-first; when the ring overflowed, the oldest records are gone
  /// and `dropped_records` says how many.
  std::vector<SpanRecord> records;
  std::uint64_t dropped_records = 0;
  /// Worker ordinal that executed the run (trace track assignment).
  unsigned worker = 0;
  /// False when the run executed without an installed profiler.
  bool enabled = false;

  [[nodiscard]] bool empty() const { return nodes.empty() && counters.empty(); }
  /// Nesting depth of node `i` (roots are 0).
  [[nodiscard]] std::size_t depth(std::size_t i) const;
  /// Full '/'-joined span path of node `i`.
  [[nodiscard]] std::string path(std::size_t i) const;
};

class Profiler {
 public:
  struct Config {
    /// Raw span records kept per run; older records are overwritten (and
    /// counted as dropped) once the ring is full. Zero keeps none (no
    /// trace export) and samples the timing: past a node's first
    /// kFullyTimedHits, a span is timed with probability 1/kSampleEvery
    /// and the node's time is scaled up from its timed hits. Hit counts
    /// and the tree's shape stay exact.
    std::size_t ring_capacity = 1 << 16;
  };

  Profiler();
  explicit Profiler(Config config);

  /// Clears all per-run state (tree, counters, ring, stack).
  void begin_run();

  /// Resolves and returns the run's profile, then clears the per-run
  /// state. Must be called with the span stack empty (all spans closed).
  [[nodiscard]] RunProfile harvest_run(unsigned worker);

  // --- recording (called via ScopedSpan / the macros) ----------------------
  void push_span(NameId name);
  void pop_span();
  void count(NameId name, std::uint64_t delta);

  // --- introspection (tests) ----------------------------------------------
  [[nodiscard]] std::size_t open_spans() const { return stack_.size(); }
  [[nodiscard]] std::uint64_t dropped_records() const { return dropped_; }
  [[nodiscard]] const Config& config() const { return config_; }

 private:
  static constexpr std::uint64_t kFullyTimedHits = 16;
  static constexpr std::uint64_t kSampleEvery = 32;
  static constexpr std::int64_t kUntimed = -1;

  struct Node {
    NameId name = 0;
    std::int32_t parent = -1;
    std::uint64_t hits = 0;
    std::uint64_t timed_hits = 0;
    /// Over the timed hits; harvest_run scales it to all hits and derives
    /// self time as the total minus the children's totals.
    std::int64_t total_ns = 0;
    /// (name, node index) pairs; linear search — fan-out is small.
    std::vector<std::pair<NameId, std::uint32_t>> children;
  };
  struct Frame {
    std::uint32_t node;
    std::int64_t start_ns;  // kUntimed when the span is not sampled
  };

  [[nodiscard]] std::uint32_t child_of(std::int32_t parent, NameId name);
  /// Whether the next span of `node` is timed (always, with a ring).
  [[nodiscard]] bool sample(const Node& node);

  Config config_;
  std::vector<Node> nodes_;
  /// Root lookup: (name, node index) of parentless nodes.
  std::vector<std::pair<NameId, std::uint32_t>> roots_;
  std::vector<Frame> stack_;
  /// Ring of raw records; wraps at config_.ring_capacity.
  std::vector<RunProfile::SpanRecord> ring_;
  std::size_t ring_next_ = 0;
  std::uint64_t dropped_ = 0;
  /// Counter values indexed directly by NameId (grown on demand).
  std::vector<std::uint64_t> counters_;
  /// xorshift64 state of the timing sample: it picks which spans are
  /// timed, never anything in the profile's shape.
  std::uint64_t sample_state_ = 0x9E3779B97F4A7C15ull;
};

namespace detail {
inline thread_local Profiler* current_profiler = nullptr;
}  // namespace detail

/// The profiler installed for this thread, or nullptr. Instrumentation
/// macros check this once per site and do nothing when unset, so the
/// platform libraries stay cheap in unprofiled runs and unit tests.
[[nodiscard]] inline Profiler* current() { return detail::current_profiler; }

/// Installs `profiler` as the current thread's recording target for the
/// scope's lifetime; restores the previous target on destruction. Scopes
/// nest, innermost wins (same discipline as telemetry::EventScope).
class ProfileScope {
 public:
  explicit ProfileScope(Profiler& profiler);
  ~ProfileScope();
  ProfileScope(const ProfileScope&) = delete;
  ProfileScope& operator=(const ProfileScope&) = delete;

 private:
  Profiler* previous_;
};

/// RAII span: records (push, pop) against the profiler that was current at
/// construction. Safe (and free) when no profiler is installed.
class ScopedSpan {
 public:
  explicit ScopedSpan(NameId name) : profiler_(current()) {
    if (profiler_ != nullptr) profiler_->push_span(name);
  }
  ~ScopedSpan() {
    if (profiler_ != nullptr) profiler_->pop_span();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Profiler* profiler_;
};

}  // namespace easis::profile

// --- instrumentation macros --------------------------------------------------
//
// EASIS_PROFILE_SPAN("os.dispatch");        // scoped span, RAII
// EASIS_PROFILE_COUNT("sim.events", 1);     // named counter add
//
// Building with -DEASIS_PROFILING=OFF defines EASIS_PROFILING_DISABLED
// globally and both macros expand to nothing — the compiled-out zero-cost
// path. With profiling compiled in, sites still cost only a thread-local
// load and branch until a ProfileScope is installed.
#if !defined(EASIS_PROFILING_DISABLED)
#define EASIS_PROFILING_ENABLED 1
#else
#define EASIS_PROFILING_ENABLED 0
#endif

#if EASIS_PROFILING_ENABLED
#define EASIS_PROFILE_CONCAT2(a, b) a##b
#define EASIS_PROFILE_CONCAT(a, b) EASIS_PROFILE_CONCAT2(a, b)
#define EASIS_PROFILE_SPAN(name_literal)                                      \
  static const ::easis::profile::NameId EASIS_PROFILE_CONCAT(                 \
      easis_profile_name_, __LINE__) =                                        \
      ::easis::profile::intern_name(name_literal);                            \
  const ::easis::profile::ScopedSpan EASIS_PROFILE_CONCAT(                    \
      easis_profile_span_, __LINE__) {                                        \
    EASIS_PROFILE_CONCAT(easis_profile_name_, __LINE__)                       \
  }
#define EASIS_PROFILE_COUNT(name_literal, delta)                              \
  do {                                                                        \
    if (::easis::profile::Profiler* easis_profile_p =                         \
            ::easis::profile::current();                                      \
        easis_profile_p != nullptr) {                                         \
      static const ::easis::profile::NameId easis_profile_id =                \
          ::easis::profile::intern_name(name_literal);                        \
      easis_profile_p->count(easis_profile_id, (delta));                      \
    }                                                                         \
  } while (false)
// Explicit begin/end pair for phases whose locals must outlive the span
// (e.g. a run's setup section). END must close the innermost open span —
// spans are strictly LIFO. The END macro is optional: the span also closes
// when `tag` goes out of scope.
#define EASIS_PROFILE_SPAN_BEGIN(tag, name_literal)                           \
  static const ::easis::profile::NameId EASIS_PROFILE_CONCAT(                 \
      easis_profile_name_, tag) = ::easis::profile::intern_name(name_literal);\
  std::optional<::easis::profile::ScopedSpan> EASIS_PROFILE_CONCAT(           \
      easis_profile_span_, tag);                                              \
  EASIS_PROFILE_CONCAT(easis_profile_span_, tag)                              \
      .emplace(EASIS_PROFILE_CONCAT(easis_profile_name_, tag))
#define EASIS_PROFILE_SPAN_END(tag)                                           \
  EASIS_PROFILE_CONCAT(easis_profile_span_, tag).reset()
#else
#define EASIS_PROFILE_SPAN(name_literal) static_cast<void>(0)
#define EASIS_PROFILE_COUNT(name_literal, delta) static_cast<void>(0)
#define EASIS_PROFILE_SPAN_BEGIN(tag, name_literal) static_cast<void>(0)
#define EASIS_PROFILE_SPAN_END(tag) static_cast<void>(0)
#endif
