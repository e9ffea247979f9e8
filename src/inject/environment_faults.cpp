#include "inject/environment_faults.hpp"

#include <memory>
#include <string>

namespace easis::inject {

Injection make_thermal_ramp(sim::Engine& engine, sim::ThermalModel& thermal,
                            double target_c, double step_c,
                            sim::Duration period, sim::SimTime start,
                            sim::Duration duration) {
  Injection inj;
  inj.name = "thermal_ramp(to " + std::to_string(target_c) + "C)";
  inj.start = start;
  inj.duration = duration;
  // The pre-ramp ambient is captured at apply time so a revert rolls the
  // climate chamber back to where the run actually started.
  auto baseline = std::make_shared<double>(0.0);
  inj.apply = [&thermal, baseline] { *baseline = thermal.ambient_c(); };
  inj.revert = [&thermal, baseline] { thermal.set_ambient(*baseline); };
  repeat_while_applied(inj, engine, period, [&thermal, target_c, step_c] {
    const double next = thermal.ambient_c() + step_c;
    thermal.set_ambient(next >= target_c ? target_c : next);
  });
  return inj;
}

Injection make_sensor_stuck(sim::ThermalModel& thermal, sim::SimTime start,
                            sim::Duration duration) {
  Injection inj;
  inj.name = "sensor_stuck";
  inj.start = start;
  inj.duration = duration;
  inj.apply = [&thermal] { thermal.set_sensor_stuck(true); };
  inj.revert = [&thermal] { thermal.set_sensor_stuck(false); };
  return inj;
}

Injection make_sensor_offset(sim::ThermalModel& thermal, double offset_c,
                             sim::SimTime start, sim::Duration duration) {
  Injection inj;
  inj.name = "sensor_offset(" + std::to_string(offset_c) + "C)";
  inj.start = start;
  inj.duration = duration;
  inj.apply = [&thermal, offset_c] { thermal.set_sensor_offset(offset_c); };
  inj.revert = [&thermal] { thermal.set_sensor_offset(0.0); };
  return inj;
}

Injection make_dtc_flood(sim::Engine& engine,
                         fmf::FaultManagementFramework& fmf,
                         std::uint32_t first_app,
                         std::uint32_t dtcs_per_period, sim::Duration period,
                         sim::SimTime start, sim::Duration duration) {
  Injection inj;
  inj.name = "dtc_flood(" + std::to_string(dtcs_per_period) + "/period)";
  inj.start = start;
  inj.duration = duration;
  auto next_app = std::make_shared<std::uint32_t>(first_app);
  repeat_while_applied(inj, engine, period, [&engine, &fmf, next_app,
                                             dtcs_per_period] {
    if (fmf.dtc_store() == nullptr) return;
    for (std::uint32_t i = 0; i < dtcs_per_period; ++i) {
      wdg::ErrorReport report;
      report.application = ApplicationId{(*next_app)++};
      report.type = wdg::ErrorType::kAliveness;
      report.time = engine.now();
      report.detail = "synthetic fault-memory flood entry";
      fmf.dtc_store()->record(report);
    }
    fmf.persist();
  });
  return inj;
}

Injection make_nvm_write_fault_burst(fmf::NvmStore& nvm, std::uint32_t count,
                                     sim::SimTime start) {
  Injection inj;
  inj.name = "nvm_write_faults(" + std::to_string(count) + ")";
  inj.start = start;
  inj.apply = [&nvm, count] { nvm.inject_write_faults(count); };
  return inj;
}

Injection make_commit_storm(sim::Engine& engine,
                            fmf::FaultManagementFramework& fmf,
                            sim::Duration period, sim::SimTime start,
                            sim::Duration duration) {
  Injection inj;
  inj.name = "commit_storm";
  inj.start = start;
  inj.duration = duration;
  repeat_while_applied(inj, engine, period, [&fmf] { fmf.persist(); });
  return inj;
}

}  // namespace easis::inject
