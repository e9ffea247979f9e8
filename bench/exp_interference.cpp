// Ablation: scheduling interference of the Software Watchdog service.
//
// The watchdog's main function is itself a (high-priority, non-preemptable)
// OS task with a modelled cost, so monitoring steals CPU from the
// applications. This bench quantifies it: SafeSpeed response-time
// statistics with the service disarmed vs armed, across check periods.
// Expected shape: sub-5% mean response inflation at the paper's 10 ms
// check period; inflation grows as the check period shrinks.
#include <fstream>
#include <iostream>

#include "os/response_time.hpp"
#include "sim/engine.hpp"
#include "validator/central_node.hpp"

using namespace easis;

namespace {

struct Run {
  double mean_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
  std::uint64_t jobs = 0;
  std::uint64_t preemptions = 0;
  double wd_cpu_share_pct = 0.0;
};

Run measure(std::int64_t check_period_ms, bool watchdog_armed) {
  sim::Engine engine;
  validator::CentralNodeConfig config;
  config.with_fmf = false;
  config.watchdog.check_period = sim::Duration::millis(check_period_ms);
  // The HW-watchdog self-supervision is serviced by the watchdog's main
  // function: a disarmed service would let it expire and reset the ECU,
  // so the baseline disarms both.
  config.with_self_supervision = watchdog_armed;
  validator::CentralNode node(engine, config);
  os::ResponseTimeObserver observer(node.kernel());
  observer.watch_only(node.safespeed_task());

  node.signals().publish("driver.demand", 0.8, engine.now());
  node.start();
  if (!watchdog_armed) {
    // Disarm: cancel the service alarm right after start.
    node.kernel().cancel_alarm(node.watchdog_service().alarm());
  }
  engine.run_until(sim::SimTime(20'000'000));  // 20 s

  Run run;
  const auto* stats = observer.response_times_ms(node.safespeed_task());
  if (stats != nullptr) {
    run.mean_ms = stats->mean();
    run.p99_ms = stats->percentile(99);
    run.max_ms = stats->max();
  }
  run.jobs = observer.jobs_observed(node.safespeed_task());
  run.preemptions = observer.preemptions(node.safespeed_task());
  run.wd_cpu_share_pct =
      100.0 *
      node.kernel().total_consumed(node.watchdog_service().task())
          .as_seconds() /
      engine.now().as_seconds();
  return run;
}

}  // namespace

int main() {
  std::cout << "=== Watchdog scheduling interference (ablation) ===\n"
            << "SafeSpeed response times over 20 s (2000 jobs), with the\n"
            << "watchdog service disarmed vs armed per check period\n\n";
  const Run off = measure(10, /*watchdog_armed=*/false);
  std::printf("%-22s mean=%.3f ms  p99=%.3f ms  max=%.3f ms  jobs=%llu\n",
              "baseline (disarmed)", off.mean_ms, off.p99_ms, off.max_ms,
              static_cast<unsigned long long>(off.jobs));

  std::ofstream csv("exp_interference.csv");
  csv << "check_period_ms,mean_ms,p99_ms,max_ms,jobs,preemptions,"
         "mean_inflation_pct\n";
  csv << "off," << off.mean_ms << ',' << off.p99_ms << ',' << off.max_ms
      << ',' << off.jobs << ',' << off.preemptions << ",0\n";

  bool shape_ok = off.jobs > 1900;
  double previous_share = 1e9;
  for (const std::int64_t check_ms : {1, 2, 5, 10, 20}) {
    const Run on = measure(check_ms, /*watchdog_armed=*/true);
    const double inflation =
        off.mean_ms > 0 ? (on.mean_ms / off.mean_ms - 1.0) * 100.0 : 0.0;
    std::printf("check period %3lld ms    mean=%.3f ms  p99=%.3f ms  "
                "max=%.3f ms  cpu_share=%.3f%%  inflation=%+.2f%%\n",
                static_cast<long long>(check_ms), on.mean_ms, on.p99_ms,
                on.max_ms, on.wd_cpu_share_pct, inflation);
    csv << check_ms << ',' << on.mean_ms << ',' << on.p99_ms << ','
        << on.max_ms << ',' << on.jobs << ',' << on.preemptions << ','
        << inflation << '\n';
    shape_ok = shape_ok && on.jobs == off.jobs;  // no lost activations
    // Worst-case response inflation is bounded by ONE main-function cost
    // (alarms share the system counter, so the phases align): ~36 us on a
    // 700 us job ~= 5.2%.
    shape_ok = shape_ok && inflation < 6.0;
    // The watchdog's CPU share must shrink as the check period grows.
    shape_ok = shape_ok && on.wd_cpu_share_pct <= previous_share + 1e-9;
    shape_ok = shape_ok && (check_ms < 10 || on.wd_cpu_share_pct < 1.0);
    previous_share = on.wd_cpu_share_pct;
  }

  std::cout << "\nraw results written to exp_interference.csv\n"
            << "--- expected shape ---\n"
            << "CPU share shrinks with the check period (<1% at 10 ms); "
               "response inflation is bounded by one main-function cost\n"
            << "shape check: " << (shape_ok ? "PASS" : "FAIL") << "\n";
  return shape_ok ? 0 : 1;
}
