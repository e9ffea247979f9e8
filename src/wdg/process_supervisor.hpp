// Supervised-process client API (watchdogd's supervisor.c idea).
//
// The Deadline unit supervises checkpoint pairs the watchdog owns; this
// unit turns the relation around and gives the *client* an explicit API:
// a runnable opens an instrumented deadline window when it starts a
// critical section and closes it when done. A window that closes late —
// or never closes — is a deadline transgression:
//
//   - reported into the TSI/FMF chain as ErrorType::kDeadline (same
//     escalation as the watchdog's own deadline supervision);
//   - accumulated into a persistent TransgressionRecord per section
//     (count, worst window, last timestamp) that the FMF serialises into
//     fault memory and the diagnostic stack serves over UDS-lite
//     ReadDataByIdentifier.
//
// Three ways to drive a window:
//   - explicit open()/close() calls from the runnable body;
//   - the InstrumentedSection guard (open in the constructor, explicit
//     close(now) — deliberately NOT closed by the destructor: a hung
//     client never reaches its scope exit, and papering over that in a
//     destructor would hide exactly the fault this unit exists to catch;
//     cycle() reports the never-closed window instead);
//   - bind_kernel(): sections auto-open/close on the kernel's runnable
//     segment boundaries, instrumenting a runnable without touching it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "os/kernel.hpp"
#include "sim/time.hpp"
#include "util/ids.hpp"
#include "wdg/watchdog.hpp"

namespace easis::wdg {

/// One instrumented section of a supervised process.
struct SectionConfig {
  std::string name;
  /// The (real) runnable executing the section; transgressions are
  /// accounted to its task/application like any other deadline error.
  RunnableId runnable;
  TaskId task;
  ApplicationId application;
  /// Maximum permitted open->close window.
  sim::Duration deadline = sim::Duration::millis(10);
};

class ProcessSupervisionUnit {
 public:
  explicit ProcessSupervisionUnit(SoftwareWatchdog& watchdog);
  ~ProcessSupervisionUnit();
  ProcessSupervisionUnit(const ProcessSupervisionUnit&) = delete;
  ProcessSupervisionUnit& operator=(const ProcessSupervisionUnit&) = delete;

  /// Registers a section; returns its index (the client-side handle).
  std::size_t add_section(const SectionConfig& config);

  /// Opens the section's deadline window. Re-opening an open window
  /// restarts it (the previous window is abandoned unreported — the
  /// client demonstrably made progress).
  void open(std::size_t section, sim::SimTime now);
  /// Closes the window; a late close records a transgression and reports
  /// kDeadline. A close on a window already reported overdue by cycle()
  /// only updates the worst-case (the transgression was counted once).
  void close(std::size_t section, sim::SimTime now);

  /// Periodic supervision; call every watchdog check period. Reports
  /// windows that are overdue but still open (the hung-client case an
  /// in-band close() can never catch), once per opening.
  void cycle(sim::SimTime now);

  /// Auto-instruments all sections on the kernel's segment boundaries:
  /// a section opens when its (task, runnable) segment starts and closes
  /// when it completes. The kernel must outlive this unit.
  void bind_kernel(os::Kernel& kernel);

  // --- persistence --------------------------------------------------------
  /// Overwrites `out` with every section's transgression record
  /// (fault-memory feed; sections without transgressions are included with
  /// count 0). Reusing `out` across calls reuses its storage.
  void persisted_records(std::vector<TransgressionRecord>& out) const;
  /// Restores counts from fault memory at boot, matched by section name;
  /// unknown names are ignored (the section set may have changed).
  void restore_records(const std::vector<TransgressionRecord>& records);

  // --- introspection ------------------------------------------------------
  [[nodiscard]] std::size_t section_count() const { return sections_.size(); }
  [[nodiscard]] const TransgressionRecord& record(std::size_t section) const;
  /// Total transgressions across all sections.
  [[nodiscard]] std::uint64_t transgressions() const;
  [[nodiscard]] bool is_open(std::size_t section) const;

 private:
  struct Section {
    SectionConfig config;
    bool open = false;
    sim::SimTime opened_at;
    /// cycle() already reported the current opening as overdue.
    bool overdue_reported = false;
    TransgressionRecord record;
  };

  class KernelHook : public os::KernelObserver {
   public:
    explicit KernelHook(ProcessSupervisionUnit& unit) : unit_(unit) {}
    void on_segment_start(TaskId task, RunnableId runnable,
                          sim::SimTime now) override;
    void on_segment_complete(TaskId task, RunnableId runnable,
                             sim::SimTime now) override;

   private:
    ProcessSupervisionUnit& unit_;
  };

  SoftwareWatchdog& watchdog_;
  std::vector<Section> sections_;
  KernelHook hook_{*this};
  os::Kernel* kernel_ = nullptr;

  void report_transgression(Section& section, sim::Duration window,
                            bool still_open, sim::SimTime now);
  [[nodiscard]] Section& section_at(std::size_t index);
};

/// Client-side guard over one instrumented deadline window.
class InstrumentedSection {
 public:
  InstrumentedSection(ProcessSupervisionUnit& unit, std::size_t section,
                      sim::SimTime now)
      : unit_(unit), section_(section) {
    unit_.open(section_, now);
  }
  InstrumentedSection(const InstrumentedSection&) = delete;
  InstrumentedSection& operator=(const InstrumentedSection&) = delete;
  /// The destructor intentionally leaves an un-closed window open: the
  /// supervision cycle reports it as a hung client.
  ~InstrumentedSection() = default;

  void close(sim::SimTime now) {
    if (closed_) return;
    closed_ = true;
    unit_.close(section_, now);
  }
  [[nodiscard]] bool closed() const { return closed_; }

 private:
  ProcessSupervisionUnit& unit_;
  std::size_t section_;
  bool closed_ = false;
};

}  // namespace easis::wdg
