// Power-mode machine for duty-cycled nodes (sensor-node extension).
//
// The paper's watchdog assumes continuously alive supervised entities; a
// duty-cycled sensor node (the simuVSInsightRail profile: sleep/wake
// cycles, burst sampling, store-and-forward uplink, flash-write windows)
// legitimately *stops* heartbeating for most of its life. The
// PowerModeManager is the declared mode machine that makes those silences
// contractual: transitions are explicitly declared, guarded, two-phase
// (request -> commit after a transition latency) and announced over the
// signal bus plus telemetry, so the mode supervision unit — and only it —
// decides whether silence, storms and dwell times match the contract.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "rte/signal_bus.hpp"
#include "sim/engine.hpp"
#include "util/ids.hpp"

namespace easis::mode {

/// The declared power modes of a duty-cycled node.
enum class PowerMode : std::uint8_t {
  /// Fully awake: sampling, uplinking, heartbeating at the nominal rate.
  kRun = 0,
  /// Awake but quiescent between duty bursts; relaxed heartbeat rate.
  kIdle = 1,
  /// Deep sleep: heartbeats stop *by contract*; only the silence guard
  /// is armed.
  kSleep = 2,
  /// Wake storm: burst sensor sampling right after wake-up; heartbeat
  /// rates far above nominal are legitimate, but the burst must end.
  kWakeBurst = 3,
  /// NVM flash-write window: store-and-forward journal commit; bounded
  /// duration, checks suspended while the flash is busy.
  kFlashWrite = 4,
};

inline constexpr std::size_t kPowerModeCount = 5;

[[nodiscard]] constexpr std::string_view to_string(PowerMode m) {
  switch (m) {
    case PowerMode::kRun: return "run";
    case PowerMode::kIdle: return "idle";
    case PowerMode::kSleep: return "sleep";
    case PowerMode::kWakeBurst: return "wakeburst";
    case PowerMode::kFlashWrite: return "flashwrite";
  }
  return "?";
}

/// Parses a canonical mode name ("run", "sleep", ...).
[[nodiscard]] std::optional<PowerMode> parse_power_mode(std::string_view s);

/// One committed transition, as announced to listeners.
struct ModeTransition {
  PowerMode from = PowerMode::kRun;
  PowerMode to = PowerMode::kRun;
  sim::SimTime at;
  std::string cause;
};

/// PowerModeManager tunables (namespace scope: a nested struct's default
/// member initializers could not feed the constructor's `= {}` default).
struct PowerModeManagerConfig {
  PowerMode initial = PowerMode::kRun;
  /// Commit delay of a granted transition (mode-change housekeeping:
  /// clock re-program, rail settle). The two-phase window the
  /// transition-hang supervision watches.
  sim::Duration transition_latency = sim::Duration::millis(2);
  /// Bus signal carrying the current mode as its enum index.
  std::string signal = "mode.power";
};

class PowerModeManager {
 public:
  /// A guard may veto a requested transition (writes the veto reason).
  using Guard = std::function<bool(PowerMode from, PowerMode to,
                                   std::string& veto_reason)>;
  using Listener = std::function<void(const ModeTransition&)>;
  using Config = PowerModeManagerConfig;

  PowerModeManager(sim::Engine& engine, rte::SignalBus& bus,
                   Config config = {});

  /// Declares an allowed edge of the mode machine. Undeclared requests
  /// are refused (and counted) — the machine is closed by construction.
  void allow(PowerMode from, PowerMode to);

  /// Requests a guarded transition. Returns true when the request was
  /// accepted (commit happens transition_latency later); false when a
  /// guard, an undeclared edge, an injection or an in-flight transition
  /// refused it.
  bool request(PowerMode to, std::string cause);

  // --- state ---------------------------------------------------------------
  [[nodiscard]] PowerMode current() const { return current_; }
  [[nodiscard]] sim::SimTime entered_at() const { return entered_at_; }
  [[nodiscard]] sim::Duration dwell(sim::SimTime now) const {
    return now - entered_at_;
  }
  [[nodiscard]] bool transition_pending() const { return pending_.has_value(); }
  [[nodiscard]] PowerMode pending_target() const {
    return pending_ ? pending_->to : current_;
  }
  [[nodiscard]] sim::SimTime pending_since() const { return pending_since_; }
  [[nodiscard]] const std::string& last_cause() const { return last_cause_; }
  [[nodiscard]] std::uint64_t transitions() const { return transitions_; }
  [[nodiscard]] std::uint64_t refusals() const { return refusals_; }
  /// Refusals since the last committed transition (the sleep-refusal
  /// supervision input; resets on every commit).
  [[nodiscard]] std::uint32_t consecutive_refusals() const {
    return consecutive_refusals_;
  }

  void add_guard(Guard guard) { guards_.push_back(std::move(guard)); }
  void add_listener(Listener listener) {
    listeners_.push_back(std::move(listener));
  }

  /// Re-seeds the machine from a persisted mode (NVM boot path): no
  /// guard, no latency, no transition count — the node *is* in that mode.
  void reseed(PowerMode mode, sim::SimTime now);

  // --- fault-injection surface ----------------------------------------------
  /// A granted transition never commits (the machine hangs in-flight).
  void set_transition_hang(bool hang) { hang_ = hang; }
  /// Every request is vetoed (e.g. a sleep-refusing peripheral driver).
  void set_refuse_all(bool refuse) { refuse_all_ = refuse; }

 private:
  sim::Engine& engine_;
  rte::SignalBus& bus_;
  Config config_;
  PowerMode current_;
  sim::SimTime entered_at_;
  std::optional<ModeTransition> pending_;
  sim::SimTime pending_since_;
  sim::EventId commit_event_ = 0;  // the in-flight commit; reseed cancels it
  std::string last_cause_ = "boot";
  std::uint64_t transitions_ = 0;
  std::uint64_t refusals_ = 0;
  std::uint32_t consecutive_refusals_ = 0;
  bool hang_ = false;
  bool refuse_all_ = false;
  std::vector<std::pair<PowerMode, PowerMode>> edges_;
  std::vector<Guard> guards_;
  std::vector<Listener> listeners_;

  [[nodiscard]] bool edge_allowed(PowerMode from, PowerMode to) const;
  void refuse(PowerMode to, const std::string& cause,
              const std::string& reason);
  void commit();
  void publish(sim::SimTime now);
};

}  // namespace easis::mode
