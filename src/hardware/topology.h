// Global topology: data centers connected by directed WAN links, with
// fewest-hop routing (thesis §3.2.1 "Global Topology" input).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/sim_loop.h"
#include "hardware/datacenter.h"
#include "hardware/link.h"

namespace gdisim {

class Topology {
 public:
  DcId add_datacenter(std::unique_ptr<DataCenter> dc);

  /// Directed WAN link. Secondary/backup links can be added with
  /// `usable == false`: they exist (and report utilization 0) but routing
  /// ignores them, matching the Ch. 6 treatment of L_EU->AFR / L_EU->AS1.
  LinkComponent& add_link(DcId from, DcId to, const LinkSpec& spec, bool usable = true);

  /// Adds both directions with the same spec.
  void add_duplex_link(DcId a, DcId b, const LinkSpec& spec, bool usable = true);

  DataCenter& dc(DcId id) { return *dcs_[id]; }
  const DataCenter& dc(DcId id) const { return *dcs_[id]; }
  std::size_t dc_count() const { return dcs_.size(); }
  DcId find_dc(const std::string& name) const;

  LinkComponent* link(DcId from, DcId to);

  /// Must be called after all links are added; computes fewest-hop routes
  /// (ties broken toward the lowest DC id, so routing is deterministic).
  void compute_routes();

  /// Runtime failover: marks a directed link (un)usable and recomputes
  /// routes. Must only be called while no agent phase is executing (e.g.
  /// from a SimulationLoop pre-tick hook). In-flight transfers drain on the
  /// old link; new messages follow the updated routes.
  void set_link_usable(DcId from, DcId to, bool usable);
  bool link_usable(DcId from, DcId to) const;

  /// The ordered list of links a transfer traverses from `from` to `to`
  /// (empty for from == to). Throws if unreachable.
  const std::vector<LinkComponent*>& route(DcId from, DcId to) const;

  /// Every component in the topology (links, switches, tiers, SANs, ...).
  std::vector<Component*> all_components();

  /// Registers all components with the loop and sets their tick length.
  void register_with(SimulationLoop& loop);

  /// Snapshot round trip of the failure-injection state: per-tier server
  /// liveness and per-link usability. Routes are recomputed on read.
  void archive_failure_state(StateArchive& ar);

 private:
  std::vector<std::unique_ptr<DataCenter>> dcs_;
  std::map<std::pair<DcId, DcId>, std::unique_ptr<LinkComponent>> links_;  // ARCHIVE-TRANSIENT: structural owners; links archive via the component walk
  std::map<std::pair<DcId, DcId>, bool> link_usable_;
  // routes_[from][to] = ordered links.
  std::vector<std::vector<std::vector<LinkComponent*>>> routes_;  // NOLINT(gdisim-snapshot-ptr) ARCHIVE-TRANSIENT: derived cache; compute_routes() rebuilds on load
  bool routes_ready_ = false;  // ARCHIVE-TRANSIENT: derived cache; compute_routes() rebuilds on load
};

}  // namespace gdisim
