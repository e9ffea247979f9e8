// Campaign benchmark program (see README.md for workloads and metrics).
//
//   campaign_bench --workload <network|environment|mode> --seed <n>
//                  --seconds <s> --trace <0|1> --results <dir>
//                  [--setup-only]
//
// Runs a fault-injection workload through the public
// harness::CampaignRunner API: one worker, no run deadline, profiling off,
// after a warm-up run of every fault class. A round is one pass of the
// committed campaign and one of the campaign at the run's seed; rounds
// repeat in a closed loop until --seconds have passed. Every call
// into a layer's public function is timed from here, outside the
// simulator: the per-run call, CampaignRunner::run, the CampaignReport
// reduction, the CSV write and the policy compile.
//
// The campaign seed is the workload's committed seed XOR --seed (0 gives
// the committed campaign). The committed campaign's CSVs must equal the
// ones under --results byte for byte; any other campaign's passes must
// reproduce its first pass; every run must meet its class's detection
// expectations. A run that fails any check counts as failed.
//
// --trace 0 prints the end-to-end metrics. --trace 1 alternates untraced
// and traced passes of the campaign at the run's seed
// (CampaignConfig::profile on) and prints the per-layer metrics, harvested
// from RunResult::profile.
// --setup-only stops after the set-up, so a caller can time process start
// to warm-up done.
//
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}; the exit code is non-zero when a check failed.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "campaign_scenarios.hpp"
#include "harness/campaign_report.hpp"
#include "harness/campaign_runner.hpp"
#include "policy/compiler.hpp"
#include "policy/policy.hpp"
#include "util/argparse.hpp"
#include "util/logging.hpp"

using namespace easis;

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Simulated horizon of every run of the three campaigns.
constexpr double kHorizonS = 8.0;
/// Runs per foreign class timed in a traced invocation (run_ms.<class>).
constexpr std::size_t kCensusRuns = 3;
/// Policy compile round trips timed per traced invocation.
constexpr int kPolicyRoundTrips = 50;

/// A run of `fault_class` must (or must not) be seen by `detector`.
struct Expectation {
  std::string fault_class;
  std::string detector;
  bool detected;
};

struct Workload {
  std::string name;
  std::uint64_t committed_seed;
  std::size_t runs_per_class;
  std::vector<std::string> classes;
  harness::CampaignRunner::RunFn run;
  /// Header of the per-run rows CSV; empty when the campaign writes none.
  std::string rows_header;
  /// Per-run detection expectations. Empty means every detector must see
  /// every run (the environment and mode campaigns' 100% shape).
  std::vector<Expectation> expectations;
};

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"network", 0xC0FFEE, 42, bench::network_fault_classes(),
       [](const harness::RunContext& ctx) {
         return bench::run_network_fault(ctx.spec().label, ctx.spec().seed);
       },
       "",
       // exp_network_coverage's seed-independent shape, per run.
       {{"frame_corruption", "e2e_check", true},
        {"frame_corruption", "cmu_report", true},
        {"loss_burst", "cmu_report", true},
        {"babbling_idiot", "node_supervisor", true},
        {"babbling_idiot", "cmu_report", true},
        {"network_partition", "signal_qualifier", true},
        {"network_partition", "node_supervisor", true},
        {"gateway_stall", "node_supervisor", false},
        {"gateway_stall", "e2e_check", false},
        {"gateway_stall", "signal_qualifier", true}}},
      {"environment", 0xE541, 25, bench::environment_fault_classes(),
       [](const harness::RunContext& ctx) {
         return bench::run_environment_fault(ctx.spec().label,
                                             ctx.spec().seed, &ctx);
       },
       bench::environment_fault_csv_header(),
       {}},
      {"mode", 0x30DE, 25, bench::mode_fault_classes(),
       [](const harness::RunContext& ctx) {
         return bench::run_mode_fault(ctx.spec().label, ctx.spec().seed,
                                      &ctx);
       },
       bench::mode_fault_csv_header(),
       {}},
  };
  return all;
}

/// The committed campaign's spec list at `seed`: runs_per_class runs of
/// each class, in class order.
std::vector<harness::RunSpec> campaign_specs(const Workload& w,
                                             std::uint64_t seed) {
  const std::size_t total = w.classes.size() * w.runs_per_class;
  std::vector<harness::RunSpec> specs =
      harness::CampaignRunner::make_specs(total, seed);
  for (std::size_t i = 0; i < total; ++i) {
    specs[i].label = w.classes[i / w.runs_per_class];
  }
  return specs;
}

/// The first `per_class` runs of every class, renumbered so the runner
/// can index them; each keeps its campaign seed.
std::vector<harness::RunSpec> first_runs_of_each_class(
    const Workload& w, std::uint64_t seed, std::size_t per_class) {
  const std::vector<harness::RunSpec> all = campaign_specs(w, seed);
  std::vector<harness::RunSpec> subset;
  for (std::size_t c = 0; c < w.classes.size(); ++c) {
    for (std::size_t k = 0; k < per_class && k < w.runs_per_class; ++k) {
      subset.push_back(all[c * w.runs_per_class + k]);
      subset.back().run_index = subset.size() - 1;
    }
  }
  return subset;
}

bool run_as_expected(const Workload& w, const harness::RunSpec& spec,
                     const harness::RunResult& result) {
  if (result.status != harness::RunStatus::kRunOk) return false;
  if (!result.misdetect.empty()) return false;
  const inject::CoverageTable& table = result.coverage;
  const std::string& label = spec.label;
  if (w.expectations.empty()) {
    const std::vector<std::string> detectors = table.detector_names();
    if (detectors.empty()) return false;
    for (const auto& detector : detectors) {
      if (table.detections(label, detector) !=
          table.experiments(label, detector)) {
        return false;
      }
    }
    return true;
  }
  for (const auto& e : w.expectations) {
    if (e.fault_class != label) continue;
    if ((table.detections(label, e.detector) > 0) != e.detected) return false;
  }
  return true;
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

/// The fault classes (first CSV field) of the lines where `actual` and
/// `expected` differ; every class when the difference cannot be pinned to
/// a known class line.
std::set<std::string> mismatched_classes(
    const std::string& actual, const std::string& expected,
    const std::vector<std::string>& classes) {
  if (actual == expected) return {};
  std::set<std::string> out;
  const auto a = split_lines(actual);
  const auto e = split_lines(expected);
  if (a.size() == e.size()) {
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (a[i] == e[i]) continue;
      const std::string cls = a[i].substr(0, a[i].find(','));
      if (std::find(classes.begin(), classes.end(), cls) == classes.end()) {
        return {classes.begin(), classes.end()};
      }
      out.insert(cls);
    }
  }
  if (out.empty()) out.insert(classes.begin(), classes.end());
  return out;
}

/// Profile totals over many runs, keyed by span leaf name / counter name.
struct LayerTotals {
  struct Span {
    std::uint64_t hits = 0;
    std::int64_t self_ns = 0;
    std::int64_t total_ns = 0;
  };
  std::map<std::string, Span> spans;
  std::map<std::string, std::uint64_t> counters;
  std::size_t runs = 0;

  void add(const profile::RunProfile& p) {
    ++runs;
    for (const auto& node : p.nodes) {
      Span& s = spans[node.name];
      s.hits += node.hits;
      s.self_ns += node.self_ns;
      s.total_ns += node.total_ns;
    }
    for (const auto& c : p.counters) counters[c.name] += c.value;
  }
  [[nodiscard]] double per_run(double total) const {
    return runs > 0 ? total / static_cast<double>(runs) : 0.0;
  }
  [[nodiscard]] double self_us(const std::string& span) const {
    const auto it = spans.find(span);
    return it == spans.end()
               ? 0.0
               : per_run(static_cast<double>(it->second.self_ns) / 1e3);
  }
  [[nodiscard]] double hits(const std::string& span) const {
    const auto it = spans.find(span);
    return it == spans.end()
               ? 0.0
               : per_run(static_cast<double>(it->second.hits));
  }
  [[nodiscard]] double counter(const std::string& name) const {
    const auto it = counters.find(name);
    return it == counters.end()
               ? 0.0
               : per_run(static_cast<double>(it->second));
  }
};

/// What one pass of a campaign (one CampaignRunner::run) measured and
/// checked.
struct Pass {
  /// CampaignRunner::run + reduction + CSV write, the campaign's wall time.
  double wall_ms = 0.0;
  double campaign_ms = 0.0;
  double reduce_ms = 0.0;
  double csv_ms = 0.0;
  std::vector<std::string> labels;
  /// Host time of each run, timed around the run function.
  std::vector<double> run_ms;
  std::vector<bool> run_failed;
  std::string coverage_csv;
  std::string rows_csv;
  std::size_t events = 0;

  [[nodiscard]] double summed_run_ms() const {
    double sum = 0.0;
    for (double ms : run_ms) sum += ms;
    return sum;
  }
};

/// Runs `specs` once through a serial CampaignRunner and checks each run.
/// With `layers`, the campaign is profiled and the harvested profiles are
/// folded into it.
Pass run_pass(const Workload& w, const std::vector<harness::RunSpec>& specs,
              LayerTotals* layers = nullptr) {
  Pass pass;
  pass.run_ms.assign(specs.size(), 0.0);
  harness::CampaignConfig config;
  config.jobs = 1;
  config.profile = layers != nullptr;
  harness::CampaignRunner runner(
      config, [&w, &pass](const harness::RunContext& ctx) {
        const auto start = Clock::now();
        harness::RunResult result = w.run(ctx);
        pass.run_ms[ctx.spec().run_index] = ms_since(start);
        return result;
      });

  const auto start = Clock::now();
  const harness::CampaignOutcome outcome = runner.run(specs);
  pass.campaign_ms = ms_since(start);
  const auto reduce_start = Clock::now();
  const harness::CampaignReport report(specs, outcome);
  pass.reduce_ms = ms_since(reduce_start);
  const auto csv_start = Clock::now();
  std::ostringstream coverage;
  report.write_coverage_csv(coverage);
  std::ostringstream rows;
  if (!w.rows_header.empty()) report.write_rows_csv(rows, w.rows_header);
  pass.csv_ms = ms_since(csv_start);
  pass.wall_ms = ms_since(start);

  pass.coverage_csv = coverage.str();
  pass.rows_csv = rows.str();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const harness::RunResult& result = outcome.results[i];
    pass.labels.push_back(specs[i].label);
    pass.run_failed.push_back(!run_as_expected(w, specs[i], result));
    pass.events += result.events.size();
    if (layers != nullptr) layers->add(result.profile);
  }
  return pass;
}

/// Counts log lines per (level, component) instead of printing them; the
/// message is still formatted by the caller, as it would be for stderr.
class LogTally {
 public:
  LogTally()
      : previous_(util::Logger::instance().set_sink(
            [this](util::LogLevel level, std::string_view component,
                   std::string_view) {
              ++counts_[{level, std::string(component)}];
            })) {}
  ~LogTally() { util::Logger::instance().set_sink(std::move(previous_)); }
  LogTally(const LogTally&) = delete;
  LogTally& operator=(const LogTally&) = delete;

  void reset() { counts_.clear(); }
  [[nodiscard]] std::uint64_t at(util::LogLevel level) const {
    std::uint64_t n = 0;
    for (const auto& [key, count] : counts_) {
      if (key.first == level) n += count;
    }
    return n;
  }
  void print(std::ostream& out) const {
    for (const auto& [key, count] : counts_) {
      out << "  log " << util::to_string(key.first) << ' ' << key.second
          << ": " << count << '\n';
    }
  }

 private:
  // Written only from inside the sink, which the Logger serialises.
  std::map<std::pair<util::LogLevel, std::string>, std::uint64_t> counts_;
  util::Logger::Sink previous_;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// Linear-interpolated percentile (q in [0, 1]).
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

std::string read_file(const std::string& path, bool& ok) {
  std::ifstream in(path, std::ios::binary);
  ok = static_cast<bool>(in);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Checks campaign passes against reference CSVs and tallies runs.
class Checker {
 public:
  explicit Checker(const Workload& w) : w_(&w) {}

  /// Campaign `k` must reproduce these CSVs (the committed ones).
  void set_reference(std::size_t k, std::string coverage, std::string rows) {
    references_[k] = {std::move(coverage), std::move(rows)};
  }

  /// Checks a pass of campaign `k`. Without a reference, the campaign's
  /// first pass becomes it, so every later pass must reproduce it.
  void check(std::size_t k, const Pass& pass) {
    const auto& [coverage, rows] =
        references_.try_emplace(k, pass.coverage_csv, pass.rows_csv)
            .first->second;
    std::set<std::string> bad =
        mismatched_classes(pass.coverage_csv, coverage, w_->classes);
    const std::set<std::string> bad_rows =
        mismatched_classes(pass.rows_csv, rows, w_->classes);
    bad.insert(bad_rows.begin(), bad_rows.end());
    if (!bad.empty()) fail("CSV output differs from the reference");
    for (std::size_t i = 0; i < pass.run_ms.size(); ++i) {
      ++attempted_;
      if (pass.run_failed[i] || bad.count(pass.labels[i]) > 0) ++failed_;
    }
  }
  /// Runs outside a campaign pass (warm-up, census): per-run checks only.
  void check_runs(const Pass& pass) {
    for (bool failed : pass.run_failed) {
      ++attempted_;
      if (failed) ++failed_;
    }
  }

  /// A check outside any single run failed.
  void fail(const std::string& why) {
    std::cerr << "check failed: " << why << '\n';
    broken_ = true;
  }

  [[nodiscard]] std::size_t attempted() const { return attempted_; }
  [[nodiscard]] std::size_t failed() const { return failed_; }
  [[nodiscard]] bool correct() const {
    return failed_ == 0 && !broken_ && attempted_ > 0;
  }

 private:
  const Workload* w_;
  /// Per campaign: (coverage CSV, rows CSV).
  std::map<std::size_t, std::pair<std::string, std::string>> references_;
  bool broken_ = false;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

/// Host time of a workload's runs over several rounds. Every run executes
/// once per round; its best time over the rounds is the run's time with
/// the least interference from the rest of the host, which on a shared
/// machine varies far more between seconds than the code does.
struct Timing {
  std::vector<double> best_ms;
  std::vector<std::string> labels;
  /// Runs ÷ (summed best run times + median harness time per pass).
  double runs_per_s = 0.0;
};

/// `passes[k][r]` is round r's pass of campaign k.
Timing best_of_rounds(const std::vector<std::vector<Pass>>& passes) {
  Timing t;
  double total_ms = 0.0;
  for (const auto& rounds : passes) {
    const Pass& first = rounds.front();
    for (std::size_t i = 0; i < first.run_ms.size(); ++i) {
      double best = first.run_ms[i];
      for (const Pass& p : rounds) best = std::min(best, p.run_ms[i]);
      t.best_ms.push_back(best);
      t.labels.push_back(first.labels[i]);
      total_ms += best;
    }
    std::vector<double> harness_ms;
    for (const Pass& p : rounds) {
      harness_ms.push_back(p.wall_ms - p.summed_run_ms());
    }
    total_ms += median(harness_ms);
  }
  t.runs_per_s = static_cast<double>(t.best_ms.size()) / (total_ms / 1e3);
  return t;
}

void print_result(const Checker& checker, const std::vector<Metric>& metrics) {
  std::cout << "\n--- metrics ---\n";
  for (const auto& m : metrics) {
    std::cout << std::left << std::setw(36) << m.name << ' '
              << std::setprecision(6) << m.value << ' ' << m.unit << '\n';
  }
  std::cout << std::left << std::setw(36) << "failed_pct" << ' '
            << 100.0 * static_cast<double>(checker.failed()) /
                   static_cast<double>(std::max<std::size_t>(
                       checker.attempted(), 1))
            << " % (" << checker.failed() << " of " << checker.attempted()
            << " runs)\n";
  std::ostringstream json;
  json << std::setprecision(17) << "{\"correct\": "
       << (checker.correct() ? "true" : "false")
       << ", \"attempted\": " << checker.attempted()
       << ", \"failed\": " << checker.failed() << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json << (i > 0 ? ", " : "") << '"' << metrics[i].name
         << "\": {\"value\": " << metrics[i].value << ", \"unit\": \""
         << metrics[i].unit << "\"}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
}

void print_layer_table(const LayerTotals& layers) {
  std::cout << "\n--- traced per-layer table (" << layers.runs
            << " runs; per run) ---\n"
            << std::left << std::setw(28) << "span" << std::right
            << std::setw(14) << "self_us" << std::setw(14) << "total_us"
            << std::setw(16) << "hits" << '\n';
  for (const auto& [name, s] : layers.spans) {
    std::cout << std::left << std::setw(28) << name << std::right
              << std::fixed << std::setprecision(2) << std::setw(14)
              << layers.per_run(static_cast<double>(s.self_ns) / 1e3)
              << std::setw(14)
              << layers.per_run(static_cast<double>(s.total_ns) / 1e3)
              << std::setw(16) << layers.per_run(static_cast<double>(s.hits))
              << '\n';
  }
  for (const auto& [name, value] : layers.counters) {
    std::cout << std::left << std::setw(28) << name << std::right
              << std::setw(44)
              << layers.per_run(static_cast<double>(value)) << '\n';
  }
  std::cout.unsetf(std::ios::fixed);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  unsigned trace = 0;
  std::string results_dir = "results";
  bool setup_only = false;
  util::ArgParser parser("campaign_bench",
                         "campaign benchmark: one workload, one process");
  parser.add("workload", &workload_name, "network, environment or mode");
  parser.add("seed", &seed,
             "XORed into the committed campaign seed (0 = committed)");
  parser.add("seconds", &seconds, "measure whole rounds for this long");
  parser.add("trace", &trace, "1 = per-layer metrics from a traced run");
  parser.add("results", &results_dir, "directory of the committed CSVs");
  parser.add("setup-only", &setup_only, "exit once set-up is done");
  if (!parser.parse(argc, argv, std::cerr)) return parser.exited() ? 0 : 2;

  const Workload* found = nullptr;
  for (const auto& w : workloads()) {
    if (w.name == workload_name) found = &w;
  }
  if (found == nullptr) {
    std::cerr << "unknown --workload '" << workload_name << "'\n";
    return 2;
  }
  const Workload& w = *found;

  // --- set-up: specs, counting log sink, warm-up of every class -----------
  // A timed round runs the committed campaign, then the campaign at the
  // run's seed: half of every round is the same work at any seed, which
  // halves the seed-to-seed spread of the percentiles, and the committed
  // campaign's output is checked byte for byte on every invocation. The
  // traced invocation profiles the campaign at the run's seed alone.
  const std::uint64_t campaign_seed = w.committed_seed ^ seed;
  std::vector<std::uint64_t> seeds = {campaign_seed};
  if (trace == 0) seeds.insert(seeds.begin(), w.committed_seed);
  std::vector<std::vector<harness::RunSpec>> campaigns;
  for (std::uint64_t s : seeds) campaigns.push_back(campaign_specs(w, s));
  LogTally log;
  // The warm-up runs come from the committed campaign, so set-up does the
  // same work at every seed.
  const Pass warmup =
      run_pass(w, first_runs_of_each_class(w, w.committed_seed, 1));
  if (setup_only) return 0;

  Checker checker(w);
  const std::string stem = results_dir + "/exp_" + w.name + "_coverage";
  bool found_csvs = true;
  const std::string coverage = read_file(stem + ".csv", found_csvs);
  const std::string rows =
      w.rows_header.empty() ? "" : read_file(stem + ".runs.csv", found_csvs);
  if (!found_csvs) {
    std::cerr << "committed CSVs not found under " << stem << "*\n";
    return 2;
  }
  for (std::size_t k = 0; k < seeds.size(); ++k) {
    if (seeds[k] == w.committed_seed) checker.set_reference(k, coverage, rows);
  }
  checker.check_runs(warmup);

  std::cout << "workload " << w.name << ", campaign seed 0x" << std::hex
            << campaign_seed << std::dec << ", " << campaigns.size()
            << " campaign(s) x " << campaigns.front().size()
            << " runs per round, trace " << trace << '\n';

  // --- timed rounds: every campaign once per round, closed loop ------------
  log.reset();
  std::vector<std::vector<Pass>> plain(campaigns.size());
  std::vector<std::vector<Pass>> traced(campaigns.size());
  LayerTotals layers;
  std::vector<double> round_runs_per_s;
  std::size_t runs_executed = 0;
  const auto measure_start = Clock::now();
  do {
    double round_ms = 0.0;
    std::size_t round_runs = 0;
    for (std::size_t k = 0; k < campaigns.size(); ++k) {
      plain[k].push_back(run_pass(w, campaigns[k]));
      checker.check(k, plain[k].back());
      round_ms += plain[k].back().wall_ms;
      round_runs += campaigns[k].size();
    }
    round_runs_per_s.push_back(static_cast<double>(round_runs) /
                               (round_ms / 1e3));
    runs_executed += round_runs;
    if (trace != 0) {
      for (std::size_t k = 0; k < campaigns.size(); ++k) {
        traced[k].push_back(run_pass(w, campaigns[k], &layers));
        checker.check(k, traced[k].back());
        runs_executed += campaigns[k].size();
      }
    }
  } while (ms_since(measure_start) < seconds * 1e3);
  const std::uint64_t warn_lines = log.at(util::LogLevel::kWarn);
  const Timing timing = best_of_rounds(plain);

  std::cout << plain[0].size() << " round(s), " << runs_executed
            << " runs executed, " << warn_lines << " WARN lines counted\n"
            << "  wall runs/s per untraced round:";
  for (double rate : round_runs_per_s) std::cout << ' ' << rate;
  std::cout << '\n';
  log.print(std::cout);

  std::vector<Metric> metrics;
  if (trace == 0) {
    metrics = {
        {"runs_per_s", timing.runs_per_s, "runs/s"},
        {"run_ms_p50", percentile(timing.best_ms, 0.50), "ms"},
        {"run_ms_p90", percentile(timing.best_ms, 0.90), "ms"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
    print_result(checker, metrics);
    return checker.correct() ? 0 : 1;
  }

  // --- traced invocation: per-layer metrics --------------------------------
  print_layer_table(layers);

  // Per-class host time: this workload's classes from its untraced
  // rounds, every other campaign's classes from a small census of their
  // first runs at the same --seed.
  std::map<std::string, std::vector<double>> class_ms;
  for (std::size_t i = 0; i < timing.best_ms.size(); ++i) {
    class_ms[timing.labels[i]].push_back(timing.best_ms[i]);
  }
  for (const auto& other : workloads()) {
    if (&other == &w) continue;
    const Pass census = run_pass(
        other, first_runs_of_each_class(other, other.committed_seed ^ seed,
                                        kCensusRuns));
    checker.check_runs(census);
    for (std::size_t i = 0; i < census.run_ms.size(); ++i) {
      class_ms[census.labels[i]].push_back(census.run_ms[i]);
    }
  }

  std::vector<double> roundtrip_us;
  const policy::PolicySet duty = bench::railmon_duty_policy();
  for (int i = 0; i < kPolicyRoundTrips; ++i) {
    const auto start = Clock::now();
    const policy::CompileResult compiled =
        policy::compile_policy(policy::to_text(duty));
    roundtrip_us.push_back(ms_since(start) * 1e3);
    if (!compiled.ok()) checker.fail("railmon_duty policy did not compile");
  }

  std::vector<double> harness_pct;
  std::vector<double> reduce_ms;
  std::vector<double> csv_ms;
  double plain_runs = 0.0;
  double events = 0.0;
  for (const auto& rounds : plain) {
    for (const Pass& p : rounds) {
      harness_pct.push_back(100.0 * (p.campaign_ms - p.summed_run_ms()) /
                            p.campaign_ms);
      reduce_ms.push_back(p.reduce_ms);
      csv_ms.push_back(p.csv_ms);
      plain_runs += static_cast<double>(p.run_ms.size());
      events += static_cast<double>(p.events);
    }
  }
  double best_total_ms = 0.0;
  for (double ms : timing.best_ms) best_total_ms += ms;
  const double mean_run_ms =
      best_total_ms / static_cast<double>(timing.best_ms.size());
  const double events_per_run = layers.counter("sim.events_fired");
  const auto until = layers.spans.find("sim.run_until");
  const double unattributed_pct =
      until == layers.spans.end() || until->second.total_ns == 0
          ? 0.0
          : 100.0 * static_cast<double>(until->second.self_ns) /
                static_cast<double>(until->second.total_ns);

  metrics = {
      {"sim.events_per_run", events_per_run, "count"},
      {"sim.ns_per_event",
       events_per_run > 0 ? mean_run_ms * 1e6 / events_per_run : 0.0, "ns"},
      {"sim.unattributed_pct", unattributed_pct, "%"},
      {"sim.events_per_s", events_per_run * timing.runs_per_s, "1/s"},
      {"sim.sim_s_per_wall_s", kHorizonS * timing.runs_per_s, "s/s"},
      {"os.segments_per_run", layers.counter("os.segments_completed"),
       "count"},
      {"os.segment.self_us", layers.self_us("os.segment"), "us"},
      {"os.dispatch.self_us", layers.self_us("os.dispatch"), "us"},
      {"fmf.react.self_us", layers.self_us("fmf.react"), "us"},
      {"fmf.reacts_per_run", layers.hits("fmf.react"), "count"},
      {"rte.signals_per_run", layers.counter("rte.signals_published"),
       "count"},
      {"rte.heartbeats_per_run", layers.counter("rte.heartbeats"), "count"},
      {"rte.signal_publish.self_us", layers.self_us("rte.signal_publish"),
       "us"},
      {"rte.heartbeat.self_us", layers.self_us("rte.heartbeat"), "us"},
  };
  for (const char* unit : {"aliveness", "pfc_check", "deadline_check",
                           "hbm_tick", "main_function", "cmu_check",
                           "tsi_report"}) {
    const std::string span = std::string("wdg.") + unit;
    metrics.push_back({span + ".self_us", layers.self_us(span), "us"});
  }
  const std::vector<Metric> rest = {
      {"wdg.tsi_reports_per_run", layers.hits("wdg.tsi_report"), "count"},
      {"telemetry.events_per_run", events / plain_runs, "count"},
      {"telemetry.publish.self_us", layers.self_us("telemetry.publish"),
       "us"},
      {"log.warn_per_run",
       static_cast<double>(warn_lines) / static_cast<double>(runs_executed),
       "count"},
      {"harness.overhead_pct", median(harness_pct), "%"},
      {"harness.reduce_ms", median(reduce_ms), "ms"},
      {"harness.csv_ms", median(csv_ms), "ms"},
      {"policy.roundtrip_us", median(roundtrip_us), "us"},
      {"trace.overhead_pct",
       100.0 * (timing.runs_per_s / best_of_rounds(traced).runs_per_s - 1.0),
       "%"},
  };
  metrics.insert(metrics.end(), rest.begin(), rest.end());
  for (const auto& family : workloads()) {
    for (const auto& cls : family.classes) {
      metrics.push_back({"run_ms." + cls, median(class_ms[cls]), "ms"});
    }
  }
  print_result(checker, metrics);
  return checker.correct() ? 0 : 1;
}
