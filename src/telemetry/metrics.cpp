#include "telemetry/metrics.hpp"

#include <sstream>
#include <stdexcept>

namespace easis::telemetry {

namespace {

// Default ostream formatting (6 significant digits) — deterministic and
// shared by both export formats.
std::string render(double value) {
  std::ostringstream out;
  out << value;
  return out.str();
}

std::string braced(const std::string& labels) {
  return labels.empty() ? "" : "{" + labels + "}";
}

std::string with_le(const std::string& labels, const std::string& le) {
  std::string out = "{";
  if (!labels.empty()) out.append(labels).append(",");
  return out.append("le=\"").append(le).append("\"}");
}

}  // namespace

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)), buckets_(bounds_.size() + 1, 0) {
  if (bounds_.empty()) {
    throw std::invalid_argument("Histogram: needs at least one upper bound");
  }
  for (std::size_t i = 1; i < bounds_.size(); ++i) {
    if (bounds_[i] <= bounds_[i - 1]) {
      throw std::invalid_argument(
          "Histogram: upper bounds must be strictly ascending");
    }
  }
}

void Histogram::observe(double value) {
  std::size_t i = 0;
  while (i < bounds_.size() && value > bounds_[i]) ++i;
  ++buckets_[i];
  if (count_ == 0 || value < min_) min_ = value;
  if (count_ == 0 || value > max_) max_ = value;
  ++count_;
  sum_ += value;
}

std::uint64_t Histogram::cumulative_count(std::size_t i) const {
  std::uint64_t total = 0;
  for (std::size_t b = 0; b <= i && b < buckets_.size(); ++b) {
    total += buckets_[b];
  }
  return total;
}

Counter& MetricsRegistry::counter(const std::string& name,
                                  const std::string& labels) {
  return counters_[Key{name, labels}];
}

Gauge& MetricsRegistry::gauge(const std::string& name,
                              const std::string& labels) {
  return gauges_[Key{name, labels}];
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      const std::string& labels,
                                      std::vector<double> upper_bounds) {
  auto it = histograms_.find(Key{name, labels});
  if (it == histograms_.end()) {
    it = histograms_.emplace(Key{name, labels},
                             Histogram(std::move(upper_bounds)))
             .first;
  }
  return it->second;
}

void MetricsRegistry::write_prometheus(std::ostream& out) const {
  // One # TYPE line per metric name; the maps are (name, labels)-sorted so
  // all label variants of a name are contiguous.
  std::string typed;
  auto type_line = [&](const std::string& name, const char* type) {
    if (typed != name) {
      out << "# TYPE " << name << ' ' << type << '\n';
      typed = name;
    }
  };
  for (const auto& [key, metric] : counters_) {
    type_line(key.first, "counter");
    out << key.first << braced(key.second) << ' ' << metric.value() << '\n';
  }
  typed.clear();
  for (const auto& [key, metric] : gauges_) {
    type_line(key.first, "gauge");
    out << key.first << braced(key.second) << ' ' << render(metric.value())
        << '\n';
  }
  typed.clear();
  for (const auto& [key, metric] : histograms_) {
    type_line(key.first, "histogram");
    const auto& bounds = metric.upper_bounds();
    for (std::size_t i = 0; i < bounds.size(); ++i) {
      out << key.first << "_bucket" << with_le(key.second, render(bounds[i]))
          << ' ' << metric.cumulative_count(i) << '\n';
    }
    out << key.first << "_bucket" << with_le(key.second, "+Inf") << ' '
        << metric.count() << '\n';
    out << key.first << "_sum" << braced(key.second) << ' '
        << render(metric.sum()) << '\n';
    out << key.first << "_count" << braced(key.second) << ' '
        << metric.count() << '\n';
  }
}

void MetricsRegistry::write_csv(std::ostream& out) const {
  out << "metric,labels,field,value\n";
  // The labels column holds commas and quotes, so it is CSV-quoted (inner
  // quotes doubled); an empty label set stays an empty unquoted field.
  auto row = [&](const std::string& name, const std::string& labels,
                 const std::string& field, const std::string& value) {
    out << name << ',';
    if (!labels.empty()) {
      out << '"';
      for (const char c : labels) {
        if (c == '"') out << "\"\"";
        else out << c;
      }
      out << '"';
    }
    out << ',' << field << ',' << value << '\n';
  };
  for (const auto& [key, metric] : counters_) {
    row(key.first, key.second, "value", std::to_string(metric.value()));
  }
  for (const auto& [key, metric] : gauges_) {
    row(key.first, key.second, "value", render(metric.value()));
  }
  for (const auto& [key, metric] : histograms_) {
    const auto& bounds = metric.upper_bounds();
    for (std::size_t i = 0; i < bounds.size(); ++i) {
      row(key.first, key.second, "le_" + render(bounds[i]),
          std::to_string(metric.cumulative_count(i)));
    }
    row(key.first, key.second, "le_inf", std::to_string(metric.count()));
    row(key.first, key.second, "sum", render(metric.sum()));
    row(key.first, key.second, "count", std::to_string(metric.count()));
    // One-line digest for humans scanning the CSV: the whole distribution
    // summary without cross-referencing the bucket rows.
    row(key.first, key.second, "summary",
        "count=" + std::to_string(metric.count()) +
            ";sum=" + render(metric.sum()) + ";min=" + render(metric.min()) +
            ";max=" + render(metric.max()));
  }
}

}  // namespace easis::telemetry
