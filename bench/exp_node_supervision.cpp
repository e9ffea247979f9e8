// Distributed extension experiment: node-level supervision across the
// vehicle CAN (the ISS domain-crossing perspective of §1, applied with the
// watchdog's own heartbeat machinery as virtual runnables).
//
// Four remote nodes heartbeat on the CAN; nodes are halted and resumed on
// a schedule. Measures detection and recovery latencies across heartbeat
// periods. Expected shape: detection latency ~= missing_threshold x
// supervision window, recovery latency ~= one heartbeat period.
#include <fstream>
#include <iostream>
#include <memory>
#include <vector>

#include "bus/can.hpp"
#include "sim/engine.hpp"
#include "util/stats.hpp"
#include "validator/node_supervisor.hpp"
#include "validator/remote_node.hpp"

using namespace easis;

namespace {

struct Sweep {
  std::int64_t heartbeat_ms;
  double mean_detect_ms;
  double mean_recover_ms;
  int missing_events;
  int recoveries;
};

Sweep run_sweep(std::int64_t heartbeat_ms) {
  sim::Engine engine;
  bus::CanBus can(engine);
  validator::NodeSupervisorConfig sup_config;
  sup_config.check_period = sim::Duration::millis(heartbeat_ms);
  validator::NodeSupervisor supervisor(engine, can, sup_config);

  constexpr int kNodes = 4;
  std::vector<std::unique_ptr<validator::RemoteNode>> nodes;
  std::vector<NodeId> ids;
  for (int i = 0; i < kNodes; ++i) {
    validator::RemoteNodeConfig config;
    config.name = "node" + std::to_string(i);
    config.heartbeat_can_id = 0x700 + static_cast<std::uint32_t>(i);
    config.heartbeat_period = sim::Duration::millis(heartbeat_ms);
    nodes.push_back(
        std::make_unique<validator::RemoteNode>(engine, can, config));
    ids.push_back(supervisor.register_node(config.name,
                                           config.heartbeat_can_id,
                                           config.heartbeat_period));
  }

  // Halt/resume schedule: node i halts at 2+2i s, resumes 1 s later.
  std::vector<sim::SimTime> halt_at(kNodes), resume_at(kNodes);
  for (int i = 0; i < kNodes; ++i) {
    halt_at[static_cast<std::size_t>(i)] =
        sim::SimTime(2'000'000 + i * 2'000'000);
    resume_at[static_cast<std::size_t>(i)] =
        halt_at[static_cast<std::size_t>(i)] + sim::Duration::seconds(1);
    engine.schedule_at(halt_at[static_cast<std::size_t>(i)],
                       [&nodes, i] { nodes[static_cast<std::size_t>(i)]->halt(); });
    engine.schedule_at(
        resume_at[static_cast<std::size_t>(i)],
        [&nodes, i] { nodes[static_cast<std::size_t>(i)]->resume(); });
  }

  util::Stats detect_ms, recover_ms;
  int missing = 0, recovered = 0;
  supervisor.set_state_callback(
      [&](NodeId node, validator::NodeSupervisor::NodeState state,
          sim::SimTime now) {
        const auto idx = static_cast<std::size_t>(node.value());
        if (state == validator::NodeSupervisor::NodeState::kMissing) {
          ++missing;
          detect_ms.add((now - halt_at[idx]).as_millis());
        } else {
          ++recovered;
          recover_ms.add((now - resume_at[idx]).as_millis());
        }
      });

  for (auto& node : nodes) node->start();
  supervisor.start();
  engine.run_until(sim::SimTime(12'000'000));

  Sweep sweep;
  sweep.heartbeat_ms = heartbeat_ms;
  sweep.mean_detect_ms = detect_ms.empty() ? -1 : detect_ms.mean();
  sweep.mean_recover_ms = recover_ms.empty() ? -1 : recover_ms.mean();
  sweep.missing_events = missing;
  sweep.recoveries = recovered;
  return sweep;
}

}  // namespace

int main() {
  std::cout << "=== Node-level supervision over CAN (extension) ===\n"
            << "4 remote nodes, each halted for 1 s in turn\n\n"
            << "heartbeat_ms  missing  recovered  mean_detect_ms  "
               "mean_recover_ms\n";
  std::ofstream csv("exp_node_supervision.csv");
  csv << "heartbeat_ms,missing,recovered,mean_detect_ms,mean_recover_ms\n";

  bool shape_ok = true;
  double previous_detect = 0.0;
  for (const std::int64_t hb : {10, 20, 50, 100}) {
    const Sweep s = run_sweep(hb);
    std::printf("%12lld  %7d  %9d  %14.1f  %15.1f\n",
                static_cast<long long>(s.heartbeat_ms), s.missing_events,
                s.recoveries, s.mean_detect_ms, s.mean_recover_ms);
    csv << s.heartbeat_ms << ',' << s.missing_events << ',' << s.recoveries
        << ',' << s.mean_detect_ms << ',' << s.mean_recover_ms << '\n';
    shape_ok = shape_ok && s.missing_events == 4 && s.recoveries == 4;
    shape_ok = shape_ok && s.mean_detect_ms >= previous_detect;
    // Detection within ~4 supervision windows; recovery within ~2 periods.
    shape_ok = shape_ok && s.mean_detect_ms <= 5.0 * static_cast<double>(hb);
    shape_ok = shape_ok &&
               s.mean_recover_ms <= 2.0 * static_cast<double>(hb) + 1.0;
    previous_detect = s.mean_detect_ms;
  }

  std::cout << "\nraw results written to exp_node_supervision.csv\n"
            << "--- expected shape ---\n"
            << "every halt detected and every resume recovered; latencies "
               "scale with the heartbeat period\n"
            << "shape check: " << (shape_ok ? "PASS" : "FAIL") << "\n";
  return shape_ok ? 0 : 1;
}
