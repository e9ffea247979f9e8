#include "wdg/com_monitor.hpp"

#include <stdexcept>
#include <utility>

#include "profile/profiler.hpp"

namespace easis::wdg {

CommunicationMonitoringUnit::CommunicationMonitoringUnit(
    SoftwareWatchdog& watchdog)
    : watchdog_(watchdog) {}

void CommunicationMonitoringUnit::add_channel(const ComChannel& channel,
                                              sim::SimTime now) {
  if (channels_.contains(channel.channel)) {
    throw std::logic_error("CMU: channel already registered: " + channel.name);
  }
  watchdog_.add_virtual_runnable(channel.channel, channel.task,
                                 channel.application, "com:" + channel.name);

  State state;
  state.config = channel;
  state.last_ok = now;
  state.timeout_reported_until = now;
  channels_.emplace(channel.channel, std::move(state));
  order_.push_back(channel.channel);
}

void CommunicationMonitoringUnit::on_check_result(RunnableId channel,
                                                  bus::E2EStatus status,
                                                  sim::SimTime now) {
  EASIS_PROFILE_SPAN("wdg.cmu_check");
  auto it = channels_.find(channel);
  if (it == channels_.end()) {
    throw std::invalid_argument("CMU: unknown channel");
  }
  State& state = it->second;
  if (status == bus::E2EStatus::kOk) {
    ++state.ok;
    state.last_ok = now;
    // Good data also closes any open timeout window.
    state.timeout_reported_until = now;
    return;
  }
  ++state.failures;
  report(state, now,
         std::string("e2e ") + bus::to_string(status) + " on " +
             state.config.name);
}

void CommunicationMonitoringUnit::cycle(sim::SimTime now) {
  for (RunnableId id : order_) {
    State& state = channels_.at(id);
    const sim::Duration timeout = state.config.timeout;
    if (timeout <= sim::Duration::zero()) continue;
    if (now - state.last_ok <= timeout) continue;
    // Report once per elapsed timeout window so sustained silence keeps
    // accumulating towards the TSI threshold.
    if (now - state.timeout_reported_until <= timeout) continue;
    state.timeout_reported_until = now;
    ++state.timeouts;
    report(state, now,
           "reception timeout on " + state.config.name + " (silent for " +
               std::to_string((now - state.last_ok).as_micros()) + "us)");
  }
}

void CommunicationMonitoringUnit::report(const State& state, sim::SimTime now,
                                         std::string detail) {
  ++reports_;
  watchdog_.report_external_error({.runnable = state.config.channel,
                                   .type = ErrorType::kCommunication,
                                   .time = now,
                                   .detail = std::move(detail)});
}

std::uint64_t CommunicationMonitoringUnit::ok_count(RunnableId channel) const {
  auto it = channels_.find(channel);
  return it == channels_.end() ? 0 : it->second.ok;
}

std::uint64_t CommunicationMonitoringUnit::e2e_failures(
    RunnableId channel) const {
  auto it = channels_.find(channel);
  return it == channels_.end() ? 0 : it->second.failures;
}

std::uint64_t CommunicationMonitoringUnit::timeouts(RunnableId channel) const {
  auto it = channels_.find(channel);
  return it == channels_.end() ? 0 : it->second.timeouts;
}

}  // namespace easis::wdg
