// Resource Supervision Unit (extension of the paper's unit set).
//
// The watchdog's HBM/PFC/TSI units supervise computation timing; this unit
// supervises *resource exhaustion* — the creeping failure class real
// dependable nodes die from long before they miss a heartbeat (watchdogd
// supervises load average, memory pressure and descriptor exhaustion as
// first-class watchdog inputs for the same reason). Each supervised
// resource is a virtual runnable, like the CMU's channels.
//
// Four resource classes map onto four error types:
//   kMemory   -> ErrorType::kMemoryBudget     (per-task heap budget)
//   kHandles  -> ErrorType::kHandleExhaustion (task budget / global pool)
//   kQueue    -> ErrorType::kQueueOverflow    (bounded signal queues)
//   kCpuLoad  -> ErrorType::kCpuOverload      (modelled load average)
//
// Three detection rules feed each class (a report is emitted once per
// cycle while the condition holds, so sustained transgressions cross the
// TSI threshold instead of flagging once and going quiet):
//   - watermark: the level (usage/budget, depth/capacity, load average)
//     stayed at or above the watermark for `window_cycles` consecutive
//     cycles (the transgression window debounces transient spikes);
//   - exhaustion: the kernel denied a request (allocation/handle) or the
//     queue overflowed since the last cycle — reported immediately, no
//     debounce, because a denial is already a visible failure;
//   - leak rate: usage grew by more than `leak_rate_per_s` (normalised to
//     the budget) per second across the leak sample window — catches slow
//     leaks that would take hours to reach the watermark.
//
// Every cycle the unit publishes `res.<name>.level` (percent) on the
// signal bus, so DTC freeze frames capture the offending task's resource
// snapshot at detection time; every `snapshot_every` cycles it emits a
// telemetry kResourceSnapshot event feeding the resource level histogram.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "os/kernel.hpp"
#include "rte/signal_bus.hpp"
#include "sim/time.hpp"
#include "util/ids.hpp"
#include "wdg/watchdog.hpp"

namespace easis::wdg {

enum class ResourceClass : std::uint8_t {
  kMemory = 0,
  kHandles,
  kQueue,
  kCpuLoad,
};

[[nodiscard]] constexpr std::string_view to_string(ResourceClass c) {
  switch (c) {
    case ResourceClass::kMemory: return "memory";
    case ResourceClass::kHandles: return "handles";
    case ResourceClass::kQueue: return "queue";
    case ResourceClass::kCpuLoad: return "cpu_load";
  }
  return "?";
}

/// Declarative detection limits of one supervised resource.
struct ResourceLimits {
  /// Watermark as a fraction of the budget/capacity (or of full
  /// utilisation for kCpuLoad). Zero disables watermark detection.
  double watermark = 0.9;
  /// Consecutive cycles at/above the watermark before the first report
  /// (transgression window).
  std::uint32_t window_cycles = 3;
  /// Normalised usage growth per second that counts as a leak; zero
  /// disables leak-rate detection. Only meaningful for memory/handles.
  double leak_rate_per_s = 0.0;
  /// Number of level samples the leak-rate slope is computed over.
  std::uint32_t leak_window_cycles = 16;
};

/// One supervised resource bound to the task/application it belongs to.
struct SupervisedResource {
  /// Virtual-runnable identity of the resource in the watchdog/TSI.
  RunnableId id;
  TaskId task;
  ApplicationId application;
  std::string name;
  ResourceClass resource_class = ResourceClass::kMemory;
  ResourceLimits limits;
  /// Signal whose bounded queue is supervised (kQueue only).
  std::string queue_signal;
};

class ResourceSupervisionUnit {
 public:
  ResourceSupervisionUnit(SoftwareWatchdog& watchdog, os::Kernel& kernel,
                          rte::SignalBus& bus);

  /// Registers a supervised resource as a virtual runnable.
  void add_resource(const SupervisedResource& resource);

  /// Smoothing factor of the CPU-load EWMA (instantaneous utilisation of
  /// the elapsed cycle weighted by alpha).
  void set_load_smoothing(double alpha) { load_alpha_ = alpha; }
  /// Emit a kResourceSnapshot telemetry event every N cycles (0 disables).
  void set_snapshot_every(std::uint32_t cycles) { snapshot_every_ = cycles; }

  /// Periodic supervision; call every watchdog check period.
  void cycle(sim::SimTime now);

  // --- introspection ------------------------------------------------------
  /// Last sampled level of the resource as percent (integer, 0..100+).
  [[nodiscard]] std::uint64_t level_pct(RunnableId id) const;
  [[nodiscard]] std::uint64_t reports_for(RunnableId id) const;
  [[nodiscard]] std::uint64_t reports_emitted() const { return reports_; }
  [[nodiscard]] std::size_t resource_count() const { return order_.size(); }
  /// Modelled CPU-load average (EWMA), 0..1.
  [[nodiscard]] double load_average() const { return load_average_; }

  /// Per-resource budgets/usage, one line each — the post-mortem resource
  /// snapshot embedded in flight-recorder dumps of quarantined runs.
  [[nodiscard]] std::string format_snapshot() const;

 private:
  struct State {
    SupervisedResource config;
    /// Consecutive cycles at/above the watermark.
    std::uint32_t above_watermark = 0;
    /// Level samples (fraction of budget) for leak-rate detection.
    std::deque<double> samples;
    std::uint64_t last_denied = 0;
    std::uint64_t last_overflows = 0;
    std::uint64_t last_level_pct = 0;
    std::uint64_t last_usage = 0;
    std::uint64_t last_budget = 0;
    std::uint64_t reports = 0;
  };

  SoftwareWatchdog& watchdog_;
  os::Kernel& kernel_;
  rte::SignalBus& bus_;
  std::unordered_map<RunnableId, State> resources_;
  std::vector<RunnableId> order_;
  std::uint64_t reports_ = 0;
  std::uint64_t cycles_ = 0;
  std::uint32_t snapshot_every_ = 8;

  // CPU-load EWMA over cycle deltas of the kernel's busy time.
  double load_alpha_ = 0.3;
  double load_average_ = 0.0;
  sim::Duration last_busy_ = sim::Duration::zero();
  sim::SimTime last_cycle_at_;
  bool have_last_cycle_ = false;

  /// Samples level (0..1) + usage/budget of one resource at `now`.
  void sample(State& state, sim::SimTime now, double& level,
              std::uint64_t& usage, std::uint64_t& budget,
              std::uint64_t& denied_total);
  void report(State& state, ErrorType type, sim::SimTime now,
              std::string detail);
  [[nodiscard]] static ErrorType error_type_of(ResourceClass c);
};

}  // namespace easis::wdg
