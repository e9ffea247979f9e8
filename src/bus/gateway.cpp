#include "bus/gateway.hpp"

#include <stdexcept>

namespace easis::bus {

Gateway::Gateway(sim::Engine& engine, sim::Duration processing_latency)
    : engine_(engine), latency_(processing_latency) {}

FrameHandler Gateway::register_domain(const std::string& name,
                                      DomainSender sender) {
  if (domains_.contains(name)) {
    throw std::logic_error("Gateway: domain already registered: " + name);
  }
  domains_[name] = std::move(sender);
  return [this, name](const Frame& frame, sim::SimTime) {
    ingress(name, frame);
  };
}

void Gateway::add_route(const std::string& from_domain, std::uint32_t id,
                        const std::string& to_domain, std::uint32_t new_id) {
  if (!domains_.contains(from_domain)) {
    throw std::invalid_argument("Gateway: unknown source domain");
  }
  if (!domains_.contains(to_domain)) {
    throw std::invalid_argument("Gateway: unknown destination domain");
  }
  routes_[RouteKey{from_domain, id}].push_back(RouteTarget{to_domain, new_id});
}

void Gateway::set_stalled(bool stalled) {
  if (stalled_ == stalled) return;
  stalled_ = stalled;
  if (stalled_) return;
  // Recovery: route the backlog in arrival order.
  std::vector<std::pair<std::string, Frame>> held = std::move(backlog_);
  backlog_.clear();
  for (auto& [domain, frame] : held) route(domain, frame);
}

void Gateway::ingress(const std::string& domain, const Frame& frame) {
  if (stalled_) {
    backlog_.emplace_back(domain, frame);
    return;
  }
  route(domain, frame);
}

void Gateway::route(const std::string& domain, const Frame& frame) {
  const RouteKey key{domain, frame.id};
  auto it = routes_.find(key);
  if (it == routes_.end()) {
    ++dropped_;
    ++dropped_by_route_[key];
    return;
  }
  for (const RouteTarget& target : it->second) {
    Frame out = frame;
    out.id = target.new_id;
    ++routed_;
    ++delivered_by_route_[key];
    engine_.schedule_in(latency_,
                        [this, to = target.to, out = std::move(out)] {
                          domains_.at(to)(out);
                        });
  }
}

std::uint64_t Gateway::route_delivered(const std::string& from_domain,
                                       std::uint32_t id) const {
  auto it = delivered_by_route_.find(RouteKey{from_domain, id});
  return it == delivered_by_route_.end() ? 0 : it->second;
}

std::uint64_t Gateway::route_dropped(const std::string& from_domain,
                                     std::uint32_t id) const {
  auto it = dropped_by_route_.find(RouteKey{from_domain, id});
  return it == dropped_by_route_.end() ? 0 : it->second;
}

}  // namespace easis::bus
