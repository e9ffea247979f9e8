#include "mode/supervision.hpp"

#include <algorithm>
#include <cmath>

#include "telemetry/event_bus.hpp"
#include "util/text.hpp"

namespace easis::mode {

namespace {

std::uint32_t scale_cycles(std::uint32_t cycles, double scale) {
  const double scaled = std::round(static_cast<double>(cycles) * scale);
  return scaled < 1.0 ? 1u : static_cast<std::uint32_t>(scaled);
}

}  // namespace

ModeSupervisionUnit::ModeSupervisionUnit(PowerModeManager& manager,
                                         wdg::SoftwareWatchdog& watchdog,
                                         TaskId task,
                                         ApplicationId application,
                                         Config config)
    : manager_(manager),
      watchdog_(watchdog),
      config_(config),
      runnable_(RunnableId{static_cast<std::uint32_t>(kModeRunnableBase)}) {
  watchdog_.add_virtual_runnable(runnable_, task, application,
                                 "mode:machine");

  manager_.add_listener([this](const ModeTransition& transition) {
    // Binding happens at commit time: the new mode's contract starts with
    // fresh monitoring periods the moment the mode is actually entered.
    apply(transition.to, transition.at);
  });
  watchdog_.add_error_listener([this](const wdg::ErrorReport& error) {
    on_watchdog_error(error);
  });
}

void ModeSupervisionUnit::set_policy(
    std::shared_ptr<const policy::PolicySet> policy, sim::SimTime now) {
  policy_ = std::move(policy);
  overlay_hashes_.clear();
  if (policy_) {
    for (const policy::ModeOverlay& overlay : policy_->modes) {
      overlay_hashes_.push_back(policy::overlay_hash24(overlay));
    }
  }
  apply(manager_.current(), now);
}

void ModeSupervisionUnit::bind(const wdg::RunnableMonitor& base) {
  bindings_.push_back(base);
  rebind_one(bindings_.back(), overlay_of(manager_.current()));
}

const policy::ModeOverlay* ModeSupervisionUnit::overlay_of(
    PowerMode mode) const {
  if (!policy_) return nullptr;
  return policy::find_mode(*policy_, to_string(mode));
}

void ModeSupervisionUnit::rebind_one(const wdg::RunnableMonitor& base,
                                     const policy::ModeOverlay* overlay) {
  wdg::RunnableMonitor bound = base;
  if (overlay != nullptr) {
    bound.aliveness_cycles =
        scale_cycles(base.aliveness_cycles, overlay->hbm_scale);
    bound.arrival_cycles =
        scale_cycles(base.arrival_cycles, overlay->hbm_scale);
    if (overlay->aliveness_armed) {
      bound.min_heartbeats =
          base.min_heartbeats > overlay->aliveness_tolerance
              ? base.min_heartbeats - overlay->aliveness_tolerance
              : 0;
      bound.max_arrivals = base.max_arrivals + overlay->arrival_tolerance;
    } else {
      // Contracted silence: aliveness off, arrival check inverted into a
      // silence guard — any heartbeat beyond silent_max_arrivals per
      // window is a contract violation.
      bound.monitor_aliveness = false;
      bound.monitor_arrival_rate = true;
      bound.max_arrivals = overlay->silent_max_arrivals;
    }
  }
  watchdog_.rebind_hypothesis(bound);
}

void ModeSupervisionUnit::apply(PowerMode target, sim::SimTime now) {
  const policy::ModeOverlay* overlay = overlay_of(target);
  for (const wdg::RunnableMonitor& base : bindings_) {
    rebind_one(base, overlay);
  }
  ++rebinds_;
  silence_contracted_ = overlay != nullptr && !overlay->aliveness_armed;
  overlay_hash24_ =
      overlay != nullptr
          ? overlay_hashes_[static_cast<std::size_t>(overlay -
                                                     policy_->modes.data())]
          : 0;
  refusals_reported_ = 0;
  if (check_unit_ != nullptr) {
    check_unit_->set_enabled(overlay == nullptr || overlay->checks_enabled);
  }
  const double deadline_scale =
      overlay != nullptr ? overlay->deadline_scale : 1.0;
  if (deadline_scale != applied_deadline_scale_) {
    watchdog_.scale_deadline_windows(deadline_scale /
                                     applied_deadline_scale_);
    applied_deadline_scale_ = deadline_scale;
  }
  if (telemetry::enabled()) {
    const wdg::RunnableMonitor& self =
        watchdog_.heartbeat_unit().config(runnable_);
    telemetry::Event event;
    event.time = now;
    event.component = telemetry::Component::kModeUnit;
    event.kind = telemetry::EventKind::kModeOverlayApplied;
    event.runnable = runnable_;
    event.task = self.task;
    event.application = self.application;
    event.detail = util::concat(to_string(target), " overlay=",
                                overlay_hash24_,
                                silence_contracted_ ? " silence" : " armed");
    telemetry::emit(std::move(event));
  }
}

void ModeSupervisionUnit::report(sim::SimTime now, std::string detail) {
  ++errors_;
  reentrant_ = true;
  watchdog_.report_external_error({.runnable = runnable_,
                                   .type = wdg::ErrorType::kPowerMode,
                                   .time = now,
                                   .detail = std::move(detail)});
  reentrant_ = false;
}

void ModeSupervisionUnit::on_watchdog_error(const wdg::ErrorReport& error) {
  // Silence-guard collaboration (the Figure 6 pattern): an arrival-rate
  // error on a mode-bound runnable while silence is contracted *is* a
  // power-mode contract violation — re-report it as such so the fault
  // memory records the true class.
  if (reentrant_ || !silence_contracted_) return;
  if (error.type != wdg::ErrorType::kArrivalRate) return;
  const bool bound =
      std::any_of(bindings_.begin(), bindings_.end(),
                  [&error](const wdg::RunnableMonitor& base) {
                    return base.runnable == error.runnable;
                  });
  if (!bound) return;
  report(error.time,
         util::concat("heartbeat during contracted silence (mode ",
                      to_string(manager_.current()), ", runnable ",
                      error.runnable.value(), ")"));
}

void ModeSupervisionUnit::cycle(sim::SimTime now) {
  const policy::ModeOverlay* overlay = overlay_of(manager_.current());
  // Overstayed dwell: stuck-in-sleep, wake-storm overrun, flash-write
  // overrun — one rule, three fault classes, parameterised per mode.
  if (overlay != nullptr && overlay->max_dwell > sim::Duration::zero() &&
      !manager_.transition_pending() &&
      manager_.dwell(now) > overlay->max_dwell) {
    report(now, util::concat("mode ", to_string(manager_.current()),
                             " overstayed: dwell ",
                             manager_.dwell(now).as_micros() / 1000,
                             "ms > max ", overlay->max_dwell.as_micros() / 1000,
                             "ms"));
  }
  // Hung transition: granted but never committed inside the deadline of
  // the mode being *left*.
  if (manager_.transition_pending()) {
    const sim::Duration deadline =
        overlay != nullptr ? overlay->transition_deadline
                           : sim::Duration::millis(50);
    const sim::Duration pending_for = now - manager_.pending_since();
    if (pending_for > deadline) {
      report(now, util::concat("transition ", to_string(manager_.current()),
                               "->", to_string(manager_.pending_target()),
                               " hung for ", pending_for.as_micros() / 1000,
                               "ms (deadline ", deadline.as_micros() / 1000,
                               "ms)"));
    }
  }
  // Sleep refusal: the machine keeps vetoing commanded transitions.
  if (config_.refusal_limit > 0 &&
      manager_.consecutive_refusals() >=
          config_.refusal_limit + refusals_reported_) {
    ++refusals_reported_;
    report(now, util::concat(manager_.consecutive_refusals(),
                             " consecutive refused transitions in mode ",
                             to_string(manager_.current()), " (limit ",
                             config_.refusal_limit, ")"));
  }
}

}  // namespace easis::mode
