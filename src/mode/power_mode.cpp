#include "mode/power_mode.hpp"

#include "telemetry/event_bus.hpp"

namespace easis::mode {

std::optional<PowerMode> parse_power_mode(std::string_view s) {
  for (std::size_t i = 0; i < kPowerModeCount; ++i) {
    const auto mode = static_cast<PowerMode>(i);
    if (s == to_string(mode)) return mode;
  }
  return std::nullopt;
}

namespace {

void emit_mode_event(telemetry::EventKind kind, sim::SimTime now,
                     std::string detail) {
  if (!telemetry::enabled()) return;
  telemetry::Event event;
  event.time = now;
  event.component = telemetry::Component::kModeUnit;
  event.kind = kind;
  event.detail = std::move(detail);
  telemetry::emit(std::move(event));
}

}  // namespace

PowerModeManager::PowerModeManager(sim::Engine& engine, rte::SignalBus& bus,
                                   Config config)
    : engine_(engine),
      bus_(bus),
      config_(config),
      current_(config.initial),
      entered_at_(engine.now()) {
  publish(engine.now());
}

void PowerModeManager::allow(PowerMode from, PowerMode to) {
  edges_.emplace_back(from, to);
}

bool PowerModeManager::edge_allowed(PowerMode from, PowerMode to) const {
  for (const auto& [f, t] : edges_) {
    if (f == from && t == to) return true;
  }
  return false;
}

void PowerModeManager::refuse(PowerMode to, const std::string& cause,
                              const std::string& reason) {
  ++refusals_;
  ++consecutive_refusals_;
  emit_mode_event(telemetry::EventKind::kModeTransitionRefused, engine_.now(),
                  std::string(to_string(current_)) + "->" +
                      std::string(to_string(to)) + " cause=" + cause +
                      " veto=" + reason);
}

bool PowerModeManager::request(PowerMode to, std::string cause) {
  const sim::SimTime now = engine_.now();
  if (pending_) {
    refuse(to, cause, "transition in flight");
    return false;
  }
  if (to == current_) {
    refuse(to, cause, "already in mode");
    return false;
  }
  if (!edge_allowed(current_, to)) {
    refuse(to, cause, "undeclared edge");
    return false;
  }
  if (refuse_all_) {
    refuse(to, cause, "refused by driver");
    return false;
  }
  for (const Guard& guard : guards_) {
    std::string veto;
    if (!guard(current_, to, veto)) {
      refuse(to, cause, veto.empty() ? "guard veto" : veto);
      return false;
    }
  }
  ModeTransition transition;
  transition.from = current_;
  transition.to = to;
  transition.cause = std::move(cause);
  pending_ = std::move(transition);
  pending_since_ = now;
  commit_event_ =
      engine_.schedule_in(config_.transition_latency, [this] { commit(); });
  return true;
}

void PowerModeManager::commit() {
  // An injected hang: the transition stays pending for the supervision
  // unit to flag.
  if (hang_) return;
  const sim::SimTime now = engine_.now();
  ModeTransition transition = std::move(*pending_);
  pending_.reset();
  transition.at = now;
  current_ = transition.to;
  entered_at_ = now;
  last_cause_ = transition.cause;
  ++transitions_;
  consecutive_refusals_ = 0;
  publish(now);
  emit_mode_event(telemetry::EventKind::kModeTransition, now,
                  std::string(to_string(transition.from)) + "->" +
                      std::string(to_string(transition.to)) +
                      " cause=" + transition.cause);
  for (const Listener& listener : listeners_) listener(transition);
}

void PowerModeManager::reseed(PowerMode target, sim::SimTime now) {
  engine_.cancel(commit_event_);
  pending_.reset();
  const PowerMode from = current_;
  current_ = target;
  entered_at_ = now;
  last_cause_ = "nvm_reseed";
  consecutive_refusals_ = 0;
  publish(now);
  emit_mode_event(telemetry::EventKind::kModeTransition, now,
                  std::string(to_string(from)) + "->" +
                      std::string(to_string(target)) + " cause=nvm_reseed");
  ModeTransition transition{from, target, now, "nvm_reseed"};
  for (const Listener& listener : listeners_) listener(transition);
}

void PowerModeManager::publish(sim::SimTime now) {
  bus_.publish(config_.signal, static_cast<double>(current_), now);
}

}  // namespace easis::mode
