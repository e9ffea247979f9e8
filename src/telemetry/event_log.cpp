#include "telemetry/event_log.hpp"

#include <limits>
#include <stdexcept>

namespace easis::telemetry {

void EventLog::push_back(const Event& event) {
  constexpr std::size_t kArenaLimit = std::numeric_limits<std::uint32_t>::max();
  if (event.detail.size() > kArenaLimit - arena_.size()) {
    throw std::length_error("EventLog: detail arena exceeds 4 GiB");
  }
  if (event.detail.size() > std::numeric_limits<std::uint16_t>::max()) {
    throw std::length_error("EventLog: event detail exceeds 64 KiB");
  }
  records_.push_back(Record{event.seq,
                            event.time.as_micros(),
                            event.injection.value(),
                            event.runnable.value(),
                            event.task.value(),
                            event.application.value(),
                            static_cast<std::uint32_t>(arena_.size()),
                            static_cast<std::uint16_t>(event.detail.size()),
                            event.component,
                            event.kind});
  arena_ += event.detail;
}

Event EventLog::operator[](std::size_t index) const {
  const Record& r = records_[index];
  Event event;
  event.seq = r.seq;
  event.time = sim::SimTime(r.time_us);
  event.component = r.component;
  event.kind = r.kind;
  event.injection = InjectionId(r.injection);
  event.runnable = RunnableId(r.runnable);
  event.task = TaskId(r.task);
  event.application = ApplicationId(r.application);
  event.detail.assign(arena_, r.detail_offset, r.detail_length);
  return event;
}

}  // namespace easis::telemetry
