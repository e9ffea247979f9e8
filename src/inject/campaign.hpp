// Campaign measurement: detection coverage and latency accounting for
// injection experiments (paper outlook: "further analysis of fault
// detection coverage").
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "sim/time.hpp"
#include "util/stats.hpp"

namespace easis::inject {

/// Records, per detector, the first detection after an injection instant.
class DetectionRecorder {
 public:
  DetectionRecorder() = default;
  /// Declares each of `detectors` (see add_detector()).
  explicit DetectionRecorder(const std::vector<std::string>& detectors);

  /// Declares a detector so coverage can count misses.
  void add_detector(const std::string& name);

  /// Marks the injection instant; first_detection latencies are relative
  /// to the most recent call.
  void mark_injection(sim::SimTime at);

  /// Called from the detector's callback; only the first call after the
  /// last mark_injection() is kept.
  void record(std::string_view detector, sim::SimTime at);

  [[nodiscard]] std::vector<std::string> detectors() const;
  [[nodiscard]] bool detected(std::string_view detector) const;
  [[nodiscard]] std::optional<sim::Duration> latency(
      std::string_view detector) const;

  /// Clears detections (keeps the detector set) for the next experiment.
  void reset();

 private:
  /// Transparent comparator: detectors are looked up by string_view, so
  /// a per-report record() builds no temporary key.
  std::map<std::string, std::optional<sim::SimTime>, std::less<>> first_;
  sim::SimTime injected_at_;
};

/// Aggregates detection results over many experiments into a coverage
/// table: fault class x detector -> (detected / total, latency stats).
class CoverageTable {
 public:
  void add_result(const std::string& fault_class, const std::string& detector,
                  bool detected, std::optional<sim::Duration> latency);

  /// Adds one result per detector `recorder` declares or saw, in detector
  /// name order.
  void add_run(const std::string& fault_class,
               const DetectionRecorder& recorder);

  /// Folds another table's cells into this one (counts add up, latency
  /// samples replay through util::Stats::merge). Campaign shards merged in
  /// run-index order reproduce the serial table exactly; any other merge
  /// order yields the same counts and the same latency stats up to fp
  /// rounding of mean/variance.
  void merge(const CoverageTable& other);

  [[nodiscard]] std::size_t total_experiments() const;

  [[nodiscard]] std::uint32_t experiments(const std::string& fault_class,
                                          const std::string& detector) const;
  [[nodiscard]] std::uint32_t detections(const std::string& fault_class,
                                         const std::string& detector) const;
  [[nodiscard]] double coverage(const std::string& fault_class,
                                const std::string& detector) const;
  [[nodiscard]] const util::Stats* latency_stats(
      const std::string& fault_class, const std::string& detector) const;

  [[nodiscard]] std::vector<std::string> fault_classes() const;
  [[nodiscard]] std::vector<std::string> detector_names() const;

  /// Prints an aligned text table (the coverage "figure" of the benches).
  void print(std::ostream& out) const;

 private:
  struct Cell {
    std::uint32_t experiments = 0;
    std::uint32_t detections = 0;
    util::Stats latency_ms;
  };
  std::map<std::pair<std::string, std::string>, Cell> cells_;

  [[nodiscard]] const Cell* cell(const std::string& fault_class,
                                 const std::string& detector) const;
};

}  // namespace easis::inject
