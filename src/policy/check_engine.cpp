#include "policy/check_engine.hpp"

#include <stdexcept>
#include <string>
#include <utility>

#include "util/text.hpp"

namespace easis::policy {

CheckSupervisionUnit::CheckSupervisionUnit(wdg::SoftwareWatchdog& watchdog,
                                           wdg::ProcessSupervisionUnit& psu,
                                           rte::SignalBus& bus, TaskId task,
                                           ApplicationId application)
    : watchdog_(watchdog),
      psu_(psu),
      bus_(bus),
      task_(task),
      application_(application) {}

void CheckSupervisionUnit::add_rule(const CheckRule& rule) {
  RuleState state;
  state.rule = rule;
  state.id = RunnableId{
      static_cast<std::uint32_t>(kCheckRunnableBase + rules_.size())};

  const std::string name = "check:" + rule.name;
  watchdog_.add_virtual_runnable(state.id, task_, application_, name);

  wdg::SectionConfig section;
  section.name = name;
  section.runnable = state.id;
  section.task = task_;
  section.application = application_;
  section.deadline = rule.deadline;
  state.section = psu_.add_section(section);

  rules_.push_back(std::move(state));
}

void CheckSupervisionUnit::cycle(sim::SimTime now) {
  if (!enabled_) return;
  for (RuleState& state : rules_) {
    ++state.cycles;
    if (state.cycles % state.rule.period_cycles != 0) continue;
    evaluate(state, now);
  }
}

void CheckSupervisionUnit::set_enabled(bool enabled) {
  if (enabled == enabled_) return;
  enabled_ = enabled;
  if (!enabled) {
    for (RuleState& state : rules_) state.has_prev = false;
  }
}

void CheckSupervisionUnit::evaluate(RuleState& state, sim::SimTime now) {
  // Re-opening an open window would abandon it unreported, so a stalled
  // evaluation keeps its original window open for the process-supervision
  // cycle to report as overdue.
  if (!state.section_open) {
    psu_.open(state.section, now);
    state.section_open = true;
  }
  if (state.stalled) return;  // the evaluation "hangs" inside its window

  const double value = bus_.read_or(state.rule.signal, state.rule.fallback);
  ++evaluations_;
  std::string detail;
  bool failed = false;
  if (value < state.rule.min || value > state.rule.max) {
    failed = true;
    detail = util::concat("check '", state.rule.name, "': ", state.rule.signal,
                          "=", value, " outside [", state.rule.min, ", ",
                          state.rule.max, "]");
  } else if (state.rule.rate_bounded && state.has_prev &&
             now > state.prev_time) {
    const double dt_s =
        static_cast<double>((now - state.prev_time).as_micros()) / 1.0e6;
    const double rate = (value - state.prev_value) / dt_s;
    if (rate < state.rule.rate_min_per_s ||
        rate > state.rule.rate_max_per_s) {
      failed = true;
      detail = util::concat("check '", state.rule.name, "': ",
                            state.rule.signal, " rate ", rate, "/s outside [",
                            state.rule.rate_min_per_s, ", ",
                            state.rule.rate_max_per_s, "]");
    }
  }
  state.has_prev = true;
  state.prev_value = value;
  state.prev_time = now;
  if (failed) {
    ++state.failures;
    ++failures_;
    watchdog_.report_external_error({.runnable = state.id,
                                     .type = wdg::ErrorType::kCheckRule,
                                     .time = now,
                                     .detail = std::move(detail)});
  }
  psu_.close(state.section, now);
  state.section_open = false;
}

void CheckSupervisionUnit::set_stalled(std::string_view rule, bool stalled) {
  for (RuleState& state : rules_) {
    if (state.rule.name == rule) {
      state.stalled = stalled;
      return;
    }
  }
  throw std::invalid_argument("CheckSupervisionUnit: unknown rule '" +
                              std::string(rule) + "'");
}

std::uint64_t CheckSupervisionUnit::failures_of(std::string_view rule) const {
  for (const RuleState& state : rules_) {
    if (state.rule.name == rule) return state.failures;
  }
  throw std::invalid_argument("CheckSupervisionUnit: unknown rule '" +
                              std::string(rule) + "'");
}

RunnableId CheckSupervisionUnit::runnable_of(std::string_view rule) const {
  for (const RuleState& state : rules_) {
    if (state.rule.name == rule) return state.id;
  }
  throw std::invalid_argument("CheckSupervisionUnit: unknown rule '" +
                              std::string(rule) + "'");
}

}  // namespace easis::policy
