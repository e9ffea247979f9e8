// Post-reset recovery validation (runtime-reliability extension).
//
// The paper's treatment chain assumes a restart/reset fixes the fault; a
// runtime-reliability monitor must *validate* that assumption (Fantechi et
// al.). After any application restart or ECU software reset the watchdog
// enters a supervised warm-up window: every monitored runnable in scope
// must re-announce at least one heartbeat within the window and the TSI
// path must stay error-free. A violated window fails the validation
// immediately — the treatment layer escalates right away instead of
// waiting for the error-indication vectors to refill to their thresholds.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_set>
#include <vector>

#include "sim/time.hpp"
#include "util/ids.hpp"
#include "wdg/types.hpp"

namespace easis::wdg {

class RecoverySupervisionUnit {
 public:
  /// `ok` = the warm-up window completed clean. On failure `cause` names
  /// the first offending error (synthesised as kAliveness for a missing
  /// re-announcement). `scope_app` is the restarted application, or
  /// invalid for an ECU-wide window.
  using ResultCallback =
      std::function<void(bool ok, ApplicationId scope_app,
                         const ErrorReport& cause, sim::SimTime now)>;

  void set_result_callback(ResultCallback cb) { callback_ = std::move(cb); }

  /// Opens a warm-up window of `cycles` watchdog main-function cycles over
  /// `required` runnables. A still-active window is replaced (the newer
  /// treatment supersedes the older validation).
  void begin(std::vector<RunnableId> required, ApplicationId scope_app,
             std::uint32_t cycles, sim::SimTime now);
  void cancel() { active_ = false; }

  [[nodiscard]] bool active() const { return active_; }

  /// Heartbeat indication forwarded by the watchdog while a window is open.
  void on_heartbeat(RunnableId runnable);
  /// Any detected error inside the window fails the validation at once.
  void on_error(const ErrorReport& report, sim::SimTime now);
  /// One watchdog main-function cycle; closes the window when it expires.
  void on_cycle(sim::SimTime now);

 private:
  ResultCallback callback_;
  bool active_ = false;
  ApplicationId scope_app_;
  std::vector<RunnableId> required_;
  std::unordered_set<RunnableId> announced_;
  std::uint32_t cycles_left_ = 0;

  void finish(bool ok, const ErrorReport& cause, sim::SimTime now);
};

}  // namespace easis::wdg
