// Discovery matchlets (§5): "In order to deal with unknown events, a
// mechanism is needed within the event distribution mechanism for
// routing unknown event types to discovery matchlets.  These look for
// code capable of matching these new events in the storage architecture
// and deploy this code onto the network."
//
// Convention: the handler bundle for event type T is published in the
// object store under the name-derived GUID hash("handler:" + T) (via
// ObjectStore::put_named).  When the discovery service sees an event of
// a type nobody handles, it fetches that GUID, parses the code bundle,
// and pushes it to a target host chosen by the placement hook.  One
// in-flight fetch per type; types with no published handler are
// remembered as unhandled (retried after `retry_interval`).
#pragma once

#include <functional>
#include <map>
#include <set>

#include "bundle/deployer.hpp"
#include "common/stats.hpp"
#include "match/rule.hpp"
#include "pipeline/pipeline_network.hpp"
#include "storage/object_store.hpp"

namespace aa::match {

struct DiscoveryStats {
  std::uint64_t unknown_events = 0;
  std::uint64_t lookups = 0;
  std::uint64_t handlers_deployed = 0;
  std::uint64_t lookup_failures = 0;
  std::uint64_t deploy_failures = 0;

  static constexpr auto fields() {
    using S = DiscoveryStats;
    return std::to_array<StatField<S>>({
        {"unknown_events", &S::unknown_events},
        {"lookups", &S::lookups},
        {"handlers_deployed", &S::handlers_deployed},
        {"lookup_failures", &S::lookup_failures},
        {"deploy_failures", &S::deploy_failures},
    });
  }
};

class DiscoveryService {
 public:
  /// The GUID a handler bundle for `event_type` is published under.
  static ObjectId handler_key(const std::string& event_type) {
    return Uid160::from_content("handler:" + event_type);
  }

  /// `is_handled(type)` answers whether some deployed matchlet already
  /// handles the type; `place(type)` picks the host to deploy a fetched
  /// handler onto.
  DiscoveryService(sim::HostId host, storage::ObjectStore& store,
                   bundle::BundleDeployer& deployer,
                   std::function<bool(const std::string&)> is_handled,
                   std::function<sim::HostId(const std::string&)> place);

  /// Feed an observed event; unknown types trigger the fetch+deploy
  /// path.  Returns true if the event's type was already handled.
  bool consider(const event::Event& e);

  /// Types whose handler deployment completed.
  const std::set<std::string>& deployed_types() const { return deployed_; }
  const DiscoveryStats& stats() const { return stats_; }

  /// Forgets past lookup failures so those types are retried (e.g.
  /// after a handler is newly published).
  void reset_failed();

  /// Marks a type as not-discoverable (infrastructure event classes):
  /// consider() treats it as handled and never looks it up.
  void ignore_type(const std::string& type) { ignored_.insert(type); }

 private:
  void fetch_and_deploy(const std::string& type);

  sim::HostId host_;
  storage::ObjectStore& store_;
  bundle::BundleDeployer& deployer_;
  std::function<bool(const std::string&)> is_handled_;
  std::function<sim::HostId(const std::string&)> place_;
  std::set<std::string> in_flight_;
  std::set<std::string> deployed_;
  std::set<std::string> failed_;   // lookup failed: no published handler
  std::set<std::string> ignored_;  // infrastructure types, never looked up
  DiscoveryStats stats_;
};

/// Pipeline adapter: watches the event stream flowing through it and
/// feeds the discovery service; events pass through unchanged.
class DiscoveryMatchlet final : public pipeline::Component {
 public:
  DiscoveryMatchlet(std::string name, DiscoveryService& service)
      : Component(std::move(name)), service_(service) {}

 protected:
  void on_event(const event::Event& e) override {
    service_.consider(e);
    emit(e);
  }

 private:
  DiscoveryService& service_;
};

}  // namespace aa::match
