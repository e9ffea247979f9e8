#include "wdg/process_supervisor.hpp"

#include <stdexcept>

namespace easis::wdg {

ProcessSupervisionUnit::ProcessSupervisionUnit(SoftwareWatchdog& watchdog)
    : watchdog_(watchdog) {}

ProcessSupervisionUnit::~ProcessSupervisionUnit() {
  if (kernel_ != nullptr) kernel_->remove_observer(&hook_);
}

std::size_t ProcessSupervisionUnit::add_section(const SectionConfig& config) {
  if (config.name.empty()) {
    throw std::logic_error("PSU: section needs a name");
  }
  if (config.deadline.as_micros() <= 0) {
    throw std::logic_error("PSU: section needs a positive deadline: " +
                           config.name);
  }
  Section section;
  section.config = config;
  section.record.section = config.name;
  sections_.push_back(std::move(section));
  return sections_.size() - 1;
}

ProcessSupervisionUnit::Section& ProcessSupervisionUnit::section_at(
    std::size_t index) {
  if (index >= sections_.size()) {
    throw std::out_of_range("PSU: unknown section index");
  }
  return sections_[index];
}

void ProcessSupervisionUnit::open(std::size_t index, sim::SimTime now) {
  Section& section = section_at(index);
  section.open = true;
  section.opened_at = now;
  section.overdue_reported = false;
}

void ProcessSupervisionUnit::close(std::size_t index, sim::SimTime now) {
  Section& section = section_at(index);
  if (!section.open) return;
  section.open = false;
  const sim::Duration window = now - section.opened_at;
  if (window <= section.config.deadline) return;
  if (section.overdue_reported) {
    // Counted when cycle() caught it overdue; the close only tells us
    // how bad the window really was.
    if (window > section.record.worst) section.record.worst = window;
    section.record.last_at = now;
    return;
  }
  ++section.record.count;
  if (window > section.record.worst) section.record.worst = window;
  section.record.last_at = now;
  report_transgression(section, window, /*still_open=*/false, now);
}

void ProcessSupervisionUnit::cycle(sim::SimTime now) {
  for (Section& section : sections_) {
    if (!section.open || section.overdue_reported) continue;
    const sim::Duration window = now - section.opened_at;
    if (window <= section.config.deadline) continue;
    section.overdue_reported = true;
    ++section.record.count;
    // worst stays: the window has not closed, its final length is unknown.
    section.record.last_at = now;
    report_transgression(section, window, /*still_open=*/true, now);
  }
}

void ProcessSupervisionUnit::report_transgression(Section& section,
                                                  sim::Duration window,
                                                  bool still_open,
                                                  sim::SimTime now) {
  ErrorReport error;
  error.runnable = section.config.runnable;
  error.task = section.config.task;
  error.application = section.config.application;
  error.type = ErrorType::kDeadline;
  error.time = now;
  error.detail =
      "deadline transgression in section " + section.config.name +
      ": window_us=" + std::to_string(window.as_micros()) +
      " deadline_us=" + std::to_string(section.config.deadline.as_micros()) +
      (still_open ? " (window still open)" : "") +
      " count=" + std::to_string(section.record.count);
  watchdog_.report_external_error(std::move(error));
}

void ProcessSupervisionUnit::bind_kernel(os::Kernel& kernel) {
  if (kernel_ != nullptr) {
    throw std::logic_error("PSU: kernel already bound");
  }
  kernel_ = &kernel;
  kernel.add_observer(&hook_);
}

void ProcessSupervisionUnit::KernelHook::on_segment_start(
    TaskId task, RunnableId runnable, sim::SimTime now) {
  for (std::size_t i = 0; i < unit_.sections_.size(); ++i) {
    const SectionConfig& cfg = unit_.sections_[i].config;
    if (cfg.task == task && cfg.runnable == runnable) unit_.open(i, now);
  }
}

void ProcessSupervisionUnit::KernelHook::on_segment_complete(
    TaskId task, RunnableId runnable, sim::SimTime now) {
  for (std::size_t i = 0; i < unit_.sections_.size(); ++i) {
    const SectionConfig& cfg = unit_.sections_[i].config;
    if (cfg.task == task && cfg.runnable == runnable) unit_.close(i, now);
  }
}

void ProcessSupervisionUnit::persisted_records(
    std::vector<TransgressionRecord>& out) const {
  out.resize(sections_.size());
  for (std::size_t i = 0; i < sections_.size(); ++i) {
    out[i] = sections_[i].record;
  }
}

void ProcessSupervisionUnit::restore_records(
    const std::vector<TransgressionRecord>& records) {
  for (const TransgressionRecord& record : records) {
    for (Section& section : sections_) {
      if (section.config.name != record.section) continue;
      // Fault memory is cumulative across resets: keep whichever side has
      // seen more (a live record never shrinks from a stale image).
      if (record.count > section.record.count) {
        section.record.count = record.count;
        section.record.last_at = record.last_at;
      }
      if (record.worst > section.record.worst) {
        section.record.worst = record.worst;
      }
    }
  }
}

const TransgressionRecord& ProcessSupervisionUnit::record(
    std::size_t section) const {
  if (section >= sections_.size()) {
    throw std::out_of_range("PSU: unknown section index");
  }
  return sections_[section].record;
}

std::uint64_t ProcessSupervisionUnit::transgressions() const {
  std::uint64_t total = 0;
  for (const Section& section : sections_) total += section.record.count;
  return total;
}

bool ProcessSupervisionUnit::is_open(std::size_t section) const {
  if (section >= sections_.size()) {
    throw std::out_of_range("PSU: unknown section index");
  }
  return sections_[section].open;
}

}  // namespace easis::wdg
