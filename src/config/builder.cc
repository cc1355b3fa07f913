#include "config/builder.h"

namespace gdisim {

InfrastructureBuilder::InfrastructureBuilder(std::uint64_t seed)
    : rng_(seed), topology_(std::make_unique<Topology>()) {}

DcId InfrastructureBuilder::add_datacenter(const DataCenterBlueprint& bp) {
  std::optional<SanSpec> san;
  if (bp.san.has_value()) san = make_san_spec(*bp.san);

  auto dc = std::make_unique<DataCenter>(bp.name, SwitchSpec{bp.switch_gbps * 1e9}, san,
                                         rng_.split("dc/" + bp.name));

  for (const auto& [kind, notation] : bp.tiers) {
    // File-server and database tiers use the data center's SAN when it has
    // one; every other server has a local RAID.
    const bool on_san = (kind == TierKind::Fs || kind == TierKind::Db) && bp.san.has_value();
    const ServerSpec server = make_server_spec(notation, /*has_local_raid=*/!on_san);
    dc->add_tier(kind, notation.servers, server, make_link_spec(bp.tier_link));
  }
  return topology_->add_datacenter(std::move(dc));
}

void InfrastructureBuilder::connect(const std::string& a, const std::string& b,
                                    const LinkNotation& link, bool usable) {
  topology_->add_link(topology_->find_dc(a), topology_->find_dc(b), make_link_spec(link),
                      usable);
}

void InfrastructureBuilder::connect_duplex(const std::string& a, const std::string& b,
                                           const LinkNotation& link, bool usable) {
  connect(a, b, link, usable);
  connect(b, a, link, usable);
}

std::unique_ptr<Topology> InfrastructureBuilder::finish() {
  topology_->compute_routes();
  return std::move(topology_);
}

}  // namespace gdisim
