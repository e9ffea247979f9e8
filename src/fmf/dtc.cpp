#include "fmf/dtc.hpp"

#include <algorithm>

namespace easis::fmf {

DtcStore::DtcStore(const rte::SignalBus& signals,
                   std::vector<std::string> frame_signals,
                   std::size_t max_entries)
    : signals_(signals),
      frame_signals_(std::move(frame_signals)),
      max_entries_(max_entries) {}

FreezeFrame DtcStore::capture(sim::SimTime at) const {
  FreezeFrame frame;
  frame.captured_at = at;
  frame.signals.reserve(frame_signals_.size());
  for (const std::string& name : frame_signals_) {
    frame.signals.emplace_back(name, signals_.read_or(name, 0.0));
  }
  return frame;
}

void DtcStore::evict_oldest() {
  auto oldest = entries_.begin();
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->second.last_seen < oldest->second.last_seen) oldest = it;
  }
  entries_.erase(oldest);
  ++evictions_;
}

void DtcStore::record(const wdg::ErrorReport& report) {
  const DtcKey key{report.application, report.type};
  if (max_entries_ != 0 && !entries_.contains(key) &&
      entries_.size() >= max_entries_) {
    evict_oldest();
  }
  auto [it, inserted] = entries_.try_emplace(key);
  DtcEntry& entry = it->second;
  if (inserted) {
    entry.key = key;
    entry.first_seen = report.time;
    entry.freeze_frame = capture(report.time);
  }
  entry.active = true;
  ++entry.occurrences;
  entry.last_seen = report.time;
}

const DtcEntry* DtcStore::entry(const DtcKey& key) const {
  auto it = entries_.find(key);
  return it == entries_.end() ? nullptr : &it->second;
}

std::vector<DtcEntry> DtcStore::entries() const {
  std::vector<DtcEntry> out;
  out.reserve(entries_.size());
  for (const auto& [_, entry] : entries_) out.push_back(entry);
  return out;
}

std::size_t DtcStore::active_count() const {
  return static_cast<std::size_t>(
      std::count_if(entries_.begin(), entries_.end(),
                    [](const auto& kv) { return kv.second.active; }));
}

void DtcStore::set_passive(const DtcKey& key) {
  auto it = entries_.find(key);
  if (it != entries_.end()) it->second.active = false;
}

void DtcStore::set_application_passive(ApplicationId app) {
  // Keys order by application first, and kAliveness is the lowest type.
  auto it = entries_.lower_bound(DtcKey{app});
  for (; it != entries_.end() && it->first.application == app; ++it) {
    it->second.active = false;
  }
}

void DtcStore::clear() { entries_.clear(); }

void DtcStore::restore(const std::vector<DtcEntry>& entries) {
  entries_.clear();
  for (const DtcEntry& entry : entries) {
    if (max_entries_ != 0 && entries_.size() >= max_entries_) {
      ++evictions_;
      continue;
    }
    entries_[entry.key] = entry;
  }
}

void DtcStore::write(std::ostream& out) const {
  out << "DTC store: " << entries_.size() << " entries, " << active_count()
      << " active\n";
  for (const auto& [key, entry] : entries_) {
    out << "  DTC app" << key.application << '/'
        << wdg::to_string(key.type) << "  x" << entry.occurrences
        << (entry.active ? "  ACTIVE" : "  passive") << "  first "
        << entry.first_seen.as_millis() << " ms, last "
        << entry.last_seen.as_millis() << " ms\n";
    if (entry.freeze_frame) {
      out << "    freeze frame @" << entry.freeze_frame->captured_at.as_millis()
          << " ms:";
      for (const auto& [name, value] : entry.freeze_frame->signals) {
        out << ' ' << name << '=' << value;
      }
      out << '\n';
    }
  }
}

}  // namespace easis::fmf
