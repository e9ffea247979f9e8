// Communication Monitoring Unit (extension of the paper's unit set).
//
// The watchdog's HBM/PFC/TSI units supervise computation; this unit
// supervises the *reception side* of protected network channels. Each
// channel is a virtual runnable (SoftwareWatchdog::add_virtual_runnable)
// bound to the task/application that consumes the signal, so sustained network faults degrade the *consumer*, e.g.
// SafeSpeed entering limp-home when its commanded maximum speed can no
// longer be trusted.
//
// Two fault sources feed the unit:
//   - on_check_result(): every E2E verdict of the channel's receiver;
//     each failed check is reported as ErrorType::kCommunication, so the
//     TSI threshold turns sustained corruption into a task fault.
//   - cycle(): periodic timeout supervision; a channel silent (no kOk)
//     for longer than its timeout is reported once per elapsed timeout
//     window — sustained silence keeps reporting and crosses the TSI
//     threshold instead of flagging once and going quiet.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "bus/e2e.hpp"
#include "sim/time.hpp"
#include "util/ids.hpp"
#include "wdg/watchdog.hpp"

namespace easis::wdg {

struct ComChannel {
  /// Virtual-runnable identity of the channel in the watchdog/TSI.
  RunnableId channel;
  /// Task and application consuming the signal; the TSI marks these
  /// faulty when the channel's error count crosses the threshold.
  TaskId task;
  ApplicationId application;
  std::string name;
  /// Maximum silence between accepted (kOk) receptions; zero disables
  /// timeout supervision for the channel.
  sim::Duration timeout = sim::Duration::zero();
};

class CommunicationMonitoringUnit {
 public:
  explicit CommunicationMonitoringUnit(SoftwareWatchdog& watchdog);

  /// Registers a channel; the timeout window is armed from `now`.
  void add_channel(const ComChannel& channel, sim::SimTime now);

  /// Feed every E2E verdict of the channel's receiver here.
  void on_check_result(RunnableId channel, bus::E2EStatus status,
                       sim::SimTime now);

  /// Periodic timeout supervision; call every watchdog check period.
  void cycle(sim::SimTime now);

  [[nodiscard]] std::uint64_t ok_count(RunnableId channel) const;
  [[nodiscard]] std::uint64_t e2e_failures(RunnableId channel) const;
  [[nodiscard]] std::uint64_t timeouts(RunnableId channel) const;
  [[nodiscard]] std::uint64_t reports_emitted() const { return reports_; }
  [[nodiscard]] std::size_t channel_count() const { return order_.size(); }

 private:
  struct State {
    ComChannel config;
    sim::SimTime last_ok;
    /// End of the last reported timeout window (windows never re-report).
    sim::SimTime timeout_reported_until;
    std::uint64_t ok = 0;
    std::uint64_t failures = 0;
    std::uint64_t timeouts = 0;
  };

  SoftwareWatchdog& watchdog_;
  std::unordered_map<RunnableId, State> channels_;
  std::vector<RunnableId> order_;
  std::uint64_t reports_ = 0;

  void report(const State& state, sim::SimTime now, std::string detail);
};

}  // namespace easis::wdg
