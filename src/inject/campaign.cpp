#include "inject/campaign.hpp"

#include <algorithm>
#include <iomanip>
#include <set>
#include <sstream>

namespace easis::inject {

DetectionRecorder::DetectionRecorder(
    const std::vector<std::string>& detectors) {
  for (const auto& name : detectors) add_detector(name);
}

void DetectionRecorder::add_detector(const std::string& name) {
  first_.try_emplace(name, std::nullopt);
}

void DetectionRecorder::mark_injection(sim::SimTime at) { injected_at_ = at; }

void DetectionRecorder::record(std::string_view detector, sim::SimTime at) {
  auto it = first_.find(detector);
  if (it == first_.end()) {
    first_.emplace(detector, at);
    return;
  }
  if (!it->second.has_value()) it->second = at;
}

std::vector<std::string> DetectionRecorder::detectors() const {
  std::vector<std::string> out;
  out.reserve(first_.size());
  for (const auto& [name, _] : first_) out.push_back(name);
  return out;
}

bool DetectionRecorder::detected(std::string_view detector) const {
  auto it = first_.find(detector);
  return it != first_.end() && it->second.has_value();
}

std::optional<sim::Duration> DetectionRecorder::latency(
    std::string_view detector) const {
  auto it = first_.find(detector);
  if (it == first_.end() || !it->second.has_value()) return std::nullopt;
  return *it->second - injected_at_;
}

void DetectionRecorder::reset() {
  for (auto& [_, detection] : first_) detection.reset();
}

void CoverageTable::add_result(const std::string& fault_class,
                               const std::string& detector, bool detected,
                               std::optional<sim::Duration> latency) {
  Cell& cell = cells_[{fault_class, detector}];
  ++cell.experiments;
  if (detected) {
    ++cell.detections;
    if (latency) cell.latency_ms.add(latency->as_millis());
  }
}

void CoverageTable::add_run(const std::string& fault_class,
                            const DetectionRecorder& recorder) {
  for (const auto& detector : recorder.detectors()) {
    add_result(fault_class, detector, recorder.detected(detector),
               recorder.latency(detector));
  }
}

void CoverageTable::merge(const CoverageTable& other) {
  if (&other == this) {
    // Self-merge doubles every cell; take a snapshot so the loop below
    // doesn't walk a map it is mutating.
    merge(CoverageTable(other));
    return;
  }
  for (const auto& [key, other_cell] : other.cells_) {
    Cell& mine = cells_[key];
    mine.experiments += other_cell.experiments;
    mine.detections += other_cell.detections;
    mine.latency_ms.merge(other_cell.latency_ms);
  }
}

std::size_t CoverageTable::total_experiments() const {
  std::size_t total = 0;
  for (const auto& [key, cell] : cells_) total += cell.experiments;
  return total;
}

const CoverageTable::Cell* CoverageTable::cell(
    const std::string& fault_class, const std::string& detector) const {
  auto it = cells_.find({fault_class, detector});
  return it == cells_.end() ? nullptr : &it->second;
}

std::uint32_t CoverageTable::experiments(const std::string& fault_class,
                                         const std::string& detector) const {
  const Cell* c = cell(fault_class, detector);
  return c ? c->experiments : 0;
}

std::uint32_t CoverageTable::detections(const std::string& fault_class,
                                        const std::string& detector) const {
  const Cell* c = cell(fault_class, detector);
  return c ? c->detections : 0;
}

double CoverageTable::coverage(const std::string& fault_class,
                               const std::string& detector) const {
  const Cell* c = cell(fault_class, detector);
  if (c == nullptr || c->experiments == 0) return 0.0;
  return static_cast<double>(c->detections) / c->experiments;
}

const util::Stats* CoverageTable::latency_stats(
    const std::string& fault_class, const std::string& detector) const {
  const Cell* c = cell(fault_class, detector);
  if (c == nullptr || c->latency_ms.empty()) return nullptr;
  return &c->latency_ms;
}

std::vector<std::string> CoverageTable::fault_classes() const {
  std::set<std::string> names;
  for (const auto& [key, _] : cells_) names.insert(key.first);
  return {names.begin(), names.end()};
}

std::vector<std::string> CoverageTable::detector_names() const {
  std::set<std::string> names;
  for (const auto& [key, _] : cells_) names.insert(key.second);
  return {names.begin(), names.end()};
}

void CoverageTable::print(std::ostream& out) const {
  const auto faults = fault_classes();
  const auto detectors = detector_names();
  std::size_t fault_width = 12;
  for (const auto& f : faults) fault_width = std::max(fault_width, f.size());

  out << std::left << std::setw(static_cast<int>(fault_width + 2))
      << "fault class";
  for (const auto& d : detectors) {
    out << std::setw(26) << (d + " cov% (lat ms)");
  }
  out << '\n';

  for (const auto& f : faults) {
    out << std::left << std::setw(static_cast<int>(fault_width + 2)) << f;
    for (const auto& d : detectors) {
      std::ostringstream cell_text;
      const auto n = experiments(f, d);
      if (n == 0) {
        cell_text << "-";
      } else {
        cell_text << std::fixed << std::setprecision(0)
                  << coverage(f, d) * 100.0 << "%";
        if (const util::Stats* lat = latency_stats(f, d)) {
          cell_text << " (" << std::setprecision(1) << lat->mean() << ")";
        }
        cell_text << " [" << detections(f, d) << "/" << n << "]";
      }
      out << std::setw(26) << cell_text.str();
    }
    out << '\n';
  }
}

}  // namespace easis::inject
