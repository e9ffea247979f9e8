#include "inject/mode_faults.hpp"

#include <utility>

namespace easis::inject {

namespace {

Injection make_flag_fault(std::string name, std::function<void(bool)> set,
                          sim::SimTime start, sim::Duration duration) {
  Injection inj;
  inj.name = std::move(name);
  inj.start = start;
  inj.duration = duration;
  inj.apply = [set] { set(true); };
  inj.revert = [set] { set(false); };
  return inj;
}

}  // namespace

Injection make_stuck_in_sleep(std::function<void(bool)> suppress_wake,
                              sim::SimTime start, sim::Duration duration) {
  return make_flag_fault("stuck_in_sleep", std::move(suppress_wake), start,
                         duration);
}

Injection make_sleep_refusal(mode::PowerModeManager& manager,
                             sim::SimTime start, sim::Duration duration) {
  Injection inj;
  inj.name = "sleep_refusal";
  inj.start = start;
  inj.duration = duration;
  inj.apply = [&manager] { manager.set_refuse_all(true); };
  inj.revert = [&manager] { manager.set_refuse_all(false); };
  return inj;
}

Injection make_wake_storm_overrun(std::function<void(bool)> stick_burst,
                                  sim::SimTime start, sim::Duration duration) {
  return make_flag_fault("wake_storm_overrun", std::move(stick_burst), start,
                         duration);
}

Injection make_flash_write_overrun(std::function<void(bool)> stick_flash,
                                   sim::SimTime start,
                                   sim::Duration duration) {
  return make_flag_fault("flash_write_overrun", std::move(stick_flash), start,
                         duration);
}

Injection make_mode_transition_hang(mode::PowerModeManager& manager,
                                    sim::SimTime start,
                                    sim::Duration duration) {
  Injection inj;
  inj.name = "mode_transition_hang";
  inj.start = start;
  inj.duration = duration;
  inj.apply = [&manager] { manager.set_transition_hang(true); };
  inj.revert = [&manager] { manager.set_transition_hang(false); };
  return inj;
}

Injection make_rogue_wake_heartbeat(sim::Engine& engine, os::Kernel& kernel,
                                    const mode::PowerModeManager& manager,
                                    TaskId task, sim::Duration period,
                                    sim::SimTime start,
                                    sim::Duration duration) {
  Injection inj;
  inj.name = "rogue_wake_heartbeat(" + kernel.task_name(task) + ")";
  inj.start = start;
  inj.duration = duration;
  repeat_while_applied(inj, engine, period, [&kernel, &manager, task] {
    // Only the sleeping node is harmed: the spurious interrupt's task
    // activation heartbeats through the contracted silence.
    if (manager.current() == mode::PowerMode::kSleep) {
      (void)kernel.activate_task(task);
    }
  });
  return inj;
}

}  // namespace easis::inject
