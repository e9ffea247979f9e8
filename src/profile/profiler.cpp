#include "profile/profiler.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <mutex>
#include <unordered_map>
#include <utility>

namespace easis::profile {

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Process-global name registry. Ids are handed out in first-intern order;
/// the mutex is touched once per call site (static-local init) and once per
/// name resolution, never on the span hot path.
struct NameRegistry {
  std::mutex mutex;
  std::vector<std::string> names;
  std::unordered_map<std::string, NameId> ids;

  static NameRegistry& instance() {
    static NameRegistry registry;
    return registry;
  }
};

}  // namespace

NameId intern_name(std::string_view name) {
  auto& registry = NameRegistry::instance();
  std::lock_guard<std::mutex> lock(registry.mutex);
  const auto it = registry.ids.find(std::string(name));
  if (it != registry.ids.end()) return it->second;
  const NameId id = static_cast<NameId>(registry.names.size());
  registry.names.emplace_back(name);
  registry.ids.emplace(registry.names.back(), id);
  return id;
}

std::string name_of(NameId id) {
  auto& registry = NameRegistry::instance();
  std::lock_guard<std::mutex> lock(registry.mutex);
  if (id >= registry.names.size()) return "<unknown>";
  return registry.names[id];
}

std::size_t RunProfile::depth(std::size_t i) const {
  std::size_t d = 0;
  for (std::int32_t p = nodes[i].parent; p >= 0;
       p = nodes[static_cast<std::size_t>(p)].parent) {
    ++d;
  }
  return d;
}

std::string RunProfile::path(std::size_t i) const {
  std::vector<const std::string*> parts;
  for (std::int32_t n = static_cast<std::int32_t>(i); n >= 0;
       n = nodes[static_cast<std::size_t>(n)].parent) {
    parts.push_back(&nodes[static_cast<std::size_t>(n)].name);
  }
  std::string joined;
  for (auto it = parts.rbegin(); it != parts.rend(); ++it) {
    if (!joined.empty()) joined += '/';
    joined += **it;
  }
  return joined;
}

Profiler::Profiler() : Profiler(Config{}) {}

Profiler::Profiler(Config config) : config_(config) {
  ring_.reserve(std::min<std::size_t>(config_.ring_capacity, 4096));
}

void Profiler::begin_run() {
  nodes_.clear();
  roots_.clear();
  stack_.clear();
  ring_.clear();
  ring_next_ = 0;
  dropped_ = 0;
  counters_.clear();
}

std::uint32_t Profiler::child_of(std::int32_t parent, NameId name) {
  auto& table = parent < 0
                    ? roots_
                    : nodes_[static_cast<std::size_t>(parent)].children;
  for (const auto& [child_name, index] : table) {
    if (child_name == name) return index;
  }
  const auto index = static_cast<std::uint32_t>(nodes_.size());
  Node node;
  node.name = name;
  node.parent = parent;
  nodes_.push_back(std::move(node));
  // nodes_.push_back may have invalidated `table`; re-resolve.
  auto& fresh = parent < 0
                    ? roots_
                    : nodes_[static_cast<std::size_t>(parent)].children;
  fresh.emplace_back(name, index);
  return index;
}

void Profiler::push_span(NameId name) {
  const std::int32_t parent =
      stack_.empty() ? -1 : static_cast<std::int32_t>(stack_.back().node);
  const std::uint32_t node = child_of(parent, name);
  stack_.push_back(Frame{node, sample(nodes_[node]) ? now_ns() : kUntimed});
}

bool Profiler::sample(const Node& node) {
  if (config_.ring_capacity > 0 || node.hits < kFullyTimedHits) return true;
  sample_state_ ^= sample_state_ << 13;
  sample_state_ ^= sample_state_ >> 7;
  sample_state_ ^= sample_state_ << 17;
  return sample_state_ % kSampleEvery == 0;
}

void Profiler::pop_span() {
  assert(!stack_.empty());
  const Frame frame = stack_.back();
  stack_.pop_back();
  Node& node = nodes_[frame.node];
  ++node.hits;
  if (frame.start_ns == kUntimed) return;
  const std::int64_t dur = now_ns() - frame.start_ns;
  ++node.timed_hits;
  node.total_ns += dur;

  if (config_.ring_capacity == 0) return;
  if (ring_.size() < config_.ring_capacity) {
    ring_.push_back(RunProfile::SpanRecord{frame.node, frame.start_ns, dur});
  } else {
    // Overwrite the oldest record (a trace keeps the tail of the run, the
    // part a post-mortem usually wants) and count the loss.
    ring_[ring_next_] = RunProfile::SpanRecord{frame.node, frame.start_ns, dur};
    ring_next_ = (ring_next_ + 1) % config_.ring_capacity;
    ++dropped_;
  }
}

void Profiler::count(NameId name, std::uint64_t delta) {
  if (name >= counters_.size()) counters_.resize(name + 1, 0);
  counters_[name] += delta;
}

RunProfile Profiler::harvest_run(unsigned worker) {
  assert(stack_.empty() && "harvest_run with open spans");
  RunProfile profile;
  profile.enabled = true;
  profile.worker = worker;
  profile.nodes.reserve(nodes_.size());
  for (const Node& node : nodes_) {
    // A sampled node's timed hits stand for all of its hits.
    const std::int64_t total_ns =
        node.timed_hits == node.hits
            ? node.total_ns
            : node.total_ns * static_cast<std::int64_t>(node.hits) /
                  static_cast<std::int64_t>(node.timed_hits);
    profile.nodes.push_back(RunProfile::Node{name_of(node.name), node.parent,
                                             node.hits, total_ns, total_ns});
  }
  // Parents precede their children: take each child's total out of its
  // parent's self time.
  for (const RunProfile::Node& node : profile.nodes) {
    if (node.parent < 0) continue;
    auto& parent = profile.nodes[static_cast<std::size_t>(node.parent)];
    parent.self_ns = std::max<std::int64_t>(0, parent.self_ns - node.total_ns);
  }
  for (NameId id = 0; id < counters_.size(); ++id) {
    if (counters_[id] == 0) continue;
    profile.counters.push_back(RunProfile::CounterSample{name_of(id),
                                                         counters_[id]});
  }
  // NameIds are assigned in racy first-use order across workers; sorting by
  // name keeps the exported counter order deterministic.
  std::sort(profile.counters.begin(), profile.counters.end(),
            [](const auto& a, const auto& b) { return a.name < b.name; });
  profile.dropped_records = dropped_;
  profile.records.reserve(ring_.size());
  if (dropped_ == 0) {
    profile.records = ring_;
  } else {
    // The ring wrapped: ring_next_ is the oldest surviving record.
    profile.records.insert(profile.records.end(), ring_.begin() + ring_next_,
                           ring_.end());
    profile.records.insert(profile.records.end(), ring_.begin(),
                           ring_.begin() + ring_next_);
  }
  begin_run();
  return profile;
}

ProfileScope::ProfileScope(Profiler& profiler)
    : previous_(std::exchange(detail::current_profiler, &profiler)) {}

ProfileScope::~ProfileScope() { detail::current_profiler = previous_; }

}  // namespace easis::profile
