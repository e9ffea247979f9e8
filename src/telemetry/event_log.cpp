#include "telemetry/event_log.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string_view>

namespace easis::telemetry {

void EventLog::push_back(const Event& event) {
  constexpr std::size_t kArenaLimit = std::numeric_limits<std::uint32_t>::max();
  if (event.detail.size() > kArenaLimit - arena_.size()) {
    throw std::length_error("EventLog: detail arena exceeds 4 GiB");
  }
  if (event.detail.size() > std::numeric_limits<std::uint16_t>::max()) {
    throw std::length_error("EventLog: event detail exceeds 64 KiB");
  }
  const std::string_view detail = event.detail;
  // A detail often repeats one a few events back (the threshold trip, the
  // state change and the treatment of every error cycle): share its bytes
  // instead of appending them again.
  const Record* same = nullptr;
  const std::size_t window = std::min(records_.size(), kShareWindow);
  for (std::size_t i = records_.size(); i > records_.size() - window; --i) {
    const Record& r = records_[i - 1];
    if (r.detail_length == detail.size() &&
        std::string_view(arena_).substr(r.detail_offset, r.detail_length) ==
            detail) {
      same = &r;
      break;
    }
  }
  const auto offset = same != nullptr
                          ? same->detail_offset
                          : static_cast<std::uint32_t>(arena_.size());
  records_.push_back(Record{event.seq,
                            event.time.as_micros(),
                            event.injection.value(),
                            event.runnable.value(),
                            event.task.value(),
                            event.application.value(),
                            offset,
                            static_cast<std::uint16_t>(detail.size()),
                            event.component,
                            event.kind});
  if (same == nullptr) arena_ += detail;
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

EventLog EventLog::tail(std::size_t n) const {
  EventLog out;
  const std::size_t first = records_.size() > n ? records_.size() - n : 0;
  for (std::size_t i = first; i < records_.size(); ++i) {
    out.push_back((*this)[i]);
  }
  return out;
}

}  // namespace easis::telemetry
