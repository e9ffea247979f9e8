// Gateway node (paper §4.1: connects the TCP/IP, CAN and FlexRay vehicle
// domains of the EASIS architecture validator).
//
// Domains register as named ports with a type-erased sender; routes map
// (source domain, frame id) to (destination domain, new id), applied with a
// configurable processing latency. The gateway is itself an endpoint on
// each bus it bridges.
//
// Drops are observable: delivered/dropped counts are kept per route key so
// a silent routing hole shows up in diagnostics instead of as a missing
// signal.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bus/frame.hpp"
#include "sim/engine.hpp"

namespace easis::bus {

class Gateway {
 public:
  /// Sends a frame into a domain (e.g. captures a CanBus endpoint).
  using DomainSender = std::function<void(Frame)>;

  Gateway(sim::Engine& engine,
          sim::Duration processing_latency = sim::Duration::micros(200));

  /// Registers a domain. Call the returned ingress handler for every frame
  /// the gateway receives from that domain (wire it as the gateway's rx on
  /// the respective bus).
  FrameHandler register_domain(const std::string& name, DomainSender sender);

  /// Routes frames with `id` arriving from `from_domain` into `to_domain`,
  /// rewriting the identifier to `new_id`.
  void add_route(const std::string& from_domain, std::uint32_t id,
                 const std::string& to_domain, std::uint32_t new_id);

  /// Gateway stall (fault model): while stalled, ingress frames are held in
  /// a backlog instead of being routed; releasing the stall routes the
  /// backlog in arrival order (a hung routing task that recovers).
  void set_stalled(bool stalled);
  [[nodiscard]] bool stalled() const { return stalled_; }
  [[nodiscard]] std::size_t backlog() const { return backlog_.size(); }

  [[nodiscard]] std::uint64_t frames_routed() const { return routed_; }
  [[nodiscard]] std::uint64_t frames_dropped() const { return dropped_; }
  /// Frames delivered out of the route (from_domain, id); counts each
  /// fan-out target delivery.
  [[nodiscard]] std::uint64_t route_delivered(const std::string& from_domain,
                                              std::uint32_t id) const;
  /// Frames from `from_domain` with `id` dropped for lack of a route.
  [[nodiscard]] std::uint64_t route_dropped(const std::string& from_domain,
                                            std::uint32_t id) const;
  [[nodiscard]] std::size_t route_count() const { return routes_.size(); }

 private:
  struct RouteKey {
    std::string from;
    std::uint32_t id;
    auto operator<=>(const RouteKey&) const = default;
  };
  struct RouteTarget {
    std::string to;
    std::uint32_t new_id;
  };

  sim::Engine& engine_;
  sim::Duration latency_;
  std::map<std::string, DomainSender> domains_;
  std::map<RouteKey, std::vector<RouteTarget>> routes_;
  std::map<RouteKey, std::uint64_t> delivered_by_route_;
  std::map<RouteKey, std::uint64_t> dropped_by_route_;
  std::vector<std::pair<std::string, Frame>> backlog_;
  bool stalled_ = false;
  std::uint64_t routed_ = 0;
  std::uint64_t dropped_ = 0;

  void ingress(const std::string& domain, const Frame& frame);
  void route(const std::string& domain, const Frame& frame);
};

}  // namespace easis::bus
