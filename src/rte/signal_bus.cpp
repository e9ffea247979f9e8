#include "rte/signal_bus.hpp"

#include <algorithm>

#include "profile/profiler.hpp"

namespace easis::rte {

const char* to_string(SignalQualifier qualifier) {
  switch (qualifier) {
    case SignalQualifier::kValid: return "valid";
    case SignalQualifier::kTimeout: return "timeout";
    case SignalQualifier::kInvalid: return "invalid";
  }
  return "?";
}

void SignalBus::publish(std::string_view name, double value,
                        sim::SimTime at) {
  EASIS_PROFILE_SPAN("rte.signal_publish");
  EASIS_PROFILE_COUNT("rte.signals_published", 1);
  auto entry = entries_.find(name);
  if (entry == entries_.end()) {
    entry = entries_.emplace(std::string(name), Entry{}).first;
  }
  Entry& e = entry->second;
  e.value = value;
  e.updated_at = at;
  ++e.updates;
  e.invalid = false;
  // A transparent lookup always hashes the name: skip it without queues.
  auto it = queues_.empty() ? queues_.end() : queues_.find(name);
  if (it != queues_.end()) {
    QueueState& q = it->second;
    if (q.capacity != 0 && q.depth >= q.capacity) {
      ++q.overflows;
    } else {
      ++q.depth;
      ++q.enqueued;
      q.peak_depth = std::max(q.peak_depth, q.depth);
    }
  }
  // Observers see the stored name (stable: map nodes never move).
  for (const auto& observer : observers_) observer(entry->first, value, at);
}

void SignalBus::invalidate(std::string_view name, sim::SimTime at) {
  slot(entries_, name).invalid = true;
  // Not an update: updated_at stays at the last *good* reception so the
  // timeout keeps measuring the age of trusted data.
  (void)at;
}

void SignalBus::set_reception_policy(std::string_view name,
                                     ReceptionPolicy policy,
                                     sim::SimTime now) {
  slot(policies_, name) = Policy{policy, now};
}

std::optional<ReceptionPolicy> SignalBus::reception_policy(
    std::string_view name) const {
  auto it = policies_.find(name);
  if (it == policies_.end()) return std::nullopt;
  return it->second.policy;
}

SignalQualifier SignalBus::qualifier(std::string_view name,
                                     sim::SimTime now) const {
  auto entry_it = entries_.find(name);
  if (entry_it != entries_.end() && entry_it->second.invalid) {
    return SignalQualifier::kInvalid;
  }
  auto policy_it = policies_.find(name);
  if (policy_it == policies_.end()) return SignalQualifier::kValid;
  const auto& [policy, armed_at] = policy_it->second;
  if (policy.deadline <= sim::Duration::zero()) return SignalQualifier::kValid;
  const sim::SimTime last_good = (entry_it != entries_.end() &&
                                  entry_it->second.updates > 0)
                                     ? entry_it->second.updated_at
                                     : armed_at;
  if (now - last_good > policy.deadline) return SignalQualifier::kTimeout;
  return SignalQualifier::kValid;
}

SignalBus::QualifiedValue SignalBus::read_qualified(std::string_view name,
                                                    sim::SimTime now,
                                                    double fallback) const {
  QualifiedValue out;
  out.qualifier = qualifier(name, now);
  const auto last = read(name);
  if (out.qualifier == SignalQualifier::kValid) {
    out.value = last.value_or(fallback);
    return out;
  }
  auto policy_it = policies_.find(name);
  const ReceptionPolicy policy =
      policy_it == policies_.end() ? ReceptionPolicy{}
                                   : policy_it->second.policy;
  switch (policy.substitute) {
    case SubstitutePolicy::kHoldLast:
      out.value = last.value_or(fallback);
      break;
    case SubstitutePolicy::kDefault:
      out.value = policy.default_value;
      break;
    case SubstitutePolicy::kLimp:
      out.value = policy.limp_value;
      break;
  }
  return out;
}

std::optional<double> SignalBus::read(std::string_view name) const {
  auto it = entries_.find(name);
  if (it == entries_.end() || it->second.updates == 0) return std::nullopt;
  return it->second.value;
}

double SignalBus::read_or(std::string_view name, double fallback) const {
  return read(name).value_or(fallback);
}

std::optional<SignalBus::Entry> SignalBus::entry(
    std::string_view name) const {
  auto it = entries_.find(name);
  if (it == entries_.end()) return std::nullopt;
  return it->second;
}

bool SignalBus::has(std::string_view name) const {
  return entries_.contains(name);
}

std::vector<std::string> SignalBus::names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& [name, _] : entries_) out.push_back(name);
  return out;
}

void SignalBus::add_observer(Observer observer) {
  observers_.push_back(std::move(observer));
}

void SignalBus::configure_queue(std::string_view name,
                                std::uint32_t capacity) {
  QueueState q;
  q.capacity = capacity;
  slot(queues_, name) = q;
}

std::uint32_t SignalBus::drain(std::string_view name, std::uint32_t count) {
  auto it = queues_.find(name);
  if (it == queues_.end()) return 0;
  QueueState& q = it->second;
  const std::uint32_t drained = std::min(q.depth, count);
  q.depth -= drained;
  q.drained += drained;
  EASIS_PROFILE_COUNT("rte.queue_drained", drained);
  return drained;
}

void SignalBus::clear_queue(std::string_view name) {
  auto it = queues_.find(name);
  if (it == queues_.end()) return;
  const std::uint32_t capacity = it->second.capacity;
  it->second = QueueState{};
  it->second.capacity = capacity;
}

std::optional<SignalBus::QueueState> SignalBus::queue_state(
    std::string_view name) const {
  auto it = queues_.find(name);
  if (it == queues_.end()) return std::nullopt;
  return it->second;
}

std::vector<std::string> SignalBus::queued_signal_names() const {
  std::vector<std::string> out;
  out.reserve(queues_.size());
  for (const auto& [name, _] : queues_) out.push_back(name);
  return out;
}

}  // namespace easis::rte
