// InfrastructureBuilder: assembles a Topology from blueprint descriptions
// written in the thesis notation (the "Data Centers" and "Global Topology"
// simulator inputs of Figure 3-1).
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>

#include "config/spec.h"
#include "core/rng.h"
#include "hardware/topology.h"

namespace gdisim {

struct DataCenterBlueprint {
  std::string name;
  std::map<TierKind, TierNotation> tiers;
  std::optional<SanNotation> san;
  /// Local link from each tier to the data center switch.
  LinkNotation tier_link{1.0, 0.5, 1.0};
  double switch_gbps = 40.0;
};

class InfrastructureBuilder {
 public:
  explicit InfrastructureBuilder(std::uint64_t seed = 12345);

  DcId add_datacenter(const DataCenterBlueprint& bp);

  /// Directed WAN link a -> b (call twice or use duplex for both ways).
  void connect(const std::string& a, const std::string& b, const LinkNotation& link,
               bool usable = true);
  void connect_duplex(const std::string& a, const std::string& b, const LinkNotation& link,
                      bool usable = true);

  Topology& topology() { return *topology_; }

  /// Finalizes routing and releases the topology.
  std::unique_ptr<Topology> finish();

 private:
  Rng rng_;
  std::unique_ptr<Topology> topology_;
};

}  // namespace gdisim
