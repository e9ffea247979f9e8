// Error injector (paper §4.5).
//
// The paper injects errors rather than faults: execution frequency and
// sequence of runnables are manipulated at runtime (ControlDesk sliders,
// loop-counter manipulation, invalid execution branches). Each Injection
// carries apply/revert actions scheduled on the simulation timeline.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "sim/time.hpp"
#include "util/ids.hpp"

namespace easis::inject {

struct Injection {
  std::string name;
  /// Absolute activation time.
  sim::SimTime start;
  /// Zero duration = permanent (never reverted).
  sim::Duration duration = sim::Duration::zero();
  std::function<void()> apply;
  std::function<void()> revert;
  /// Monotonic per-injector id, assigned by add(); correlates every
  /// telemetry event of this fault's detection chain.
  InjectionId id;
};

/// Makes `inj` a periodic fault: `action` runs when the injection is
/// applied and every `period` after that until it is reverted. An apply
/// or revert already set on `inj` runs first.
void repeat_while_applied(Injection& inj, sim::Engine& engine,
                          sim::Duration period, std::function<void()> action);

class ErrorInjector {
 public:
  explicit ErrorInjector(sim::Engine& engine) : engine_(engine) {}
  ErrorInjector(const ErrorInjector&) = delete;
  ErrorInjector& operator=(const ErrorInjector&) = delete;

  /// Registers an injection; schedule with arm().
  void add(Injection injection);

  /// Schedules all registered injections. Call once, before running.
  void arm();

  [[nodiscard]] std::size_t injection_count() const {
    return injections_.size();
  }
  [[nodiscard]] std::uint32_t applied() const { return applied_; }
  [[nodiscard]] std::uint32_t reverted() const { return reverted_; }

 private:
  sim::Engine& engine_;
  std::vector<Injection> injections_;
  bool armed_ = false;
  std::uint32_t applied_ = 0;
  std::uint32_t reverted_ = 0;
};

}  // namespace easis::inject
