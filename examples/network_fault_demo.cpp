// Network fault demo: the protected communication chain under attack.
//
// The telematics max-speed command crosses the gateway onto the vehicle
// CAN protected by an E2E header (CRC-8 + alive counter). The demo
// injects three network faults in sequence -- frame corruption, a
// babbling-idiot node, a network partition -- and shows each layer of the
// defence reacting: the E2E check discarding damaged frames, the
// Communication Monitoring Unit reporting into the watchdog, SafeSpeed
// degrading to its limp-home maximum speed, and the node supervisor
// flagging the starved remote node.
//
//   $ ./network_fault_demo
#include <cstdio>

#include "inject/injector.hpp"
#include "inject/network_faults.hpp"
#include "sim/engine.hpp"
#include "validator/central_node.hpp"
#include "validator/network.hpp"
#include "validator/node_supervisor.hpp"
#include "validator/remote_node.hpp"
#include "wdg/com_monitor.hpp"

using namespace easis;

namespace {

const char* qualifier_name(rte::SignalQualifier q) {
  switch (q) {
    case rte::SignalQualifier::kValid: return "VALID";
    case rte::SignalQualifier::kTimeout: return "TIMEOUT";
    case rte::SignalQualifier::kInvalid: return "INVALID";
  }
  return "?";
}

}  // namespace

int main() {
  sim::Engine engine;
  validator::CentralNodeConfig config;
  config.safespeed.max_speed_deadline = sim::Duration::millis(200);
  config.safespeed.limp_max_speed_kmh = 60.0;
  validator::CentralNode node(engine, config);

  validator::NetworkConfig net_config;
  net_config.e2e_protection = true;
  validator::VehicleNetwork network(engine, node.signals(), net_config);

  // Record-only fault management: every communication fault lands in the
  // FMF fault log, but the application is left running so the demo shows
  // the signal-layer degradation recover after each attack. (The
  // treatment escalation chain is exercised by tests/com_robustness_test.)
  fmf::ApplicationPolicy policy;
  policy.on_faulty = fmf::TreatmentAction::kNone;
  node.fault_management()->set_application_policy(
      node.safespeed().application(), policy);
  node.fault_management()->add_fault_listener([](const fmf::FaultRecord& r) {
    if (r.report.type == wdg::ErrorType::kCommunication) {
      static int shown = 0;
      if (++shown <= 3 || shown % 10 == 0) {
        std::printf("[%5.1f s]   fmf fault log: %s (#%d)\n",
                    r.report.time.as_micros() / 1e6, r.report.detail.c_str(),
                    shown);
      }
    }
  });

  // Communication monitoring: the max-speed channel, bound to SafeSpeed.
  wdg::CommunicationMonitoringUnit cmu(node.watchdog());
  const RunnableId channel{1000};
  wdg::ComChannel ch;
  ch.channel = channel;
  ch.task = node.safespeed_task();
  ch.application = node.safespeed().application();
  ch.name = "max_speed";
  ch.timeout = sim::Duration::millis(200);
  cmu.add_channel(ch, engine.now());
  network.set_max_speed_check_listener(
      [&](bus::E2EStatus status, sim::SimTime now) {
        cmu.on_check_result(channel, status, now);
      });
  engine.every(sim::Duration::millis(50), [&] { cmu.cycle(engine.now()); });

  // A remote node heartbeating on the same CAN, supervised centrally.
  validator::RemoteNodeConfig remote_config;
  remote_config.name = "dynamics";
  remote_config.heartbeat_can_id = 0x700;
  validator::RemoteNode remote(engine, network.can(), remote_config);
  validator::NodeSupervisor supervisor(engine, network.can());
  const NodeId remote_id = supervisor.register_node(
      "dynamics", 0x700, remote_config.heartbeat_period);
  supervisor.set_state_callback([](NodeId, auto state, sim::SimTime now) {
    std::printf("[%5.1f s]   supervisor: remote node %s\n",
                now.as_micros() / 1e6,
                state == validator::NodeSupervisor::NodeState::kMissing
                    ? "MISSING"
                    : "recovered");
  });

  // Telematics keeps commanding 120 km/h every 50 ms.
  engine.every(sim::Duration::millis(50),
               [&] { network.command_max_speed(120.0); });

  // The three attacks, back to back with recovery gaps.
  inject::ErrorInjector injector(engine);
  injector.add(inject::make_frame_corruption(network.can_fault_link(), 1.0,
                                             sim::SimTime(2'000'000),
                                             sim::Duration::millis(600)));
  injector.add(inject::make_babbling_idiot(network.babbler(),
                                           sim::SimTime(5'000'000),
                                           sim::Duration::millis(800)));
  injector.add(inject::make_network_partition(network.can_fault_link(),
                                              sim::SimTime(9'000'000),
                                              sim::Duration::millis(600)));
  injector.arm();
  std::puts("[  2.0 s]   inject: frame corruption (every CAN frame, 600 ms)");
  std::puts("[  5.0 s]   inject: babbling idiot (id 0 flood, 800 ms)");
  std::puts("[  9.0 s]   inject: network partition (600 ms)\n");

  for (int half_second = 1; half_second <= 24; ++half_second) {
    engine.schedule_at(sim::SimTime(half_second * 500'000), [&] {
      std::printf(
          "[%5.1f s] qualifier %-7s | effective limit %5.1f km/h | "
          "e2e rejects %llu | cmu reports %llu\n",
          engine.now().as_micros() / 1e6,
          qualifier_name(node.safespeed().max_speed_qualifier()),
          node.safespeed().effective_max_speed(),
          static_cast<unsigned long long>(network.e2e_rejections()),
          static_cast<unsigned long long>(cmu.reports_emitted()));
    });
  }

  node.signals().publish("driver.demand", 1.0, engine.now());
  node.start();
  network.start();
  remote.start();
  supervisor.start();
  engine.run_until(sim::SimTime(12'000'000));

  const auto* rx = network.max_speed_receiver();
  std::printf(
      "\nE2E receiver: %llu ok, %llu crc errors, %llu wrong sequence\n",
      static_cast<unsigned long long>(rx->ok_count()),
      static_cast<unsigned long long>(rx->crc_errors()),
      static_cast<unsigned long long>(rx->wrong_sequences()));
  std::printf("CMU: %llu e2e failures, %llu timeouts, %llu reports\n",
              static_cast<unsigned long long>(cmu.e2e_failures(channel)),
              static_cast<unsigned long long>(cmu.timeouts(channel)),
              static_cast<unsigned long long>(cmu.reports_emitted()));
  std::printf("supervisor: %u missing events, %u recoveries on %s\n",
              supervisor.missing_events(remote_id),
              supervisor.recovery_events(remote_id),
              supervisor.node_name(remote_id).c_str());
  std::printf("final qualifier %s, effective limit %.1f km/h\n",
              qualifier_name(node.safespeed().max_speed_qualifier()),
              node.safespeed().effective_max_speed());
  return 0;
}
