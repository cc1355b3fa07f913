#include "hardware/topology.h"

#include <gtest/gtest.h>

#include "config/builder.h"

namespace gdisim {
namespace {

std::unique_ptr<DataCenter> make_dc(const std::string& name, std::uint64_t seed = 1) {
  return std::make_unique<DataCenter>(name, SwitchSpec{1e10}, std::nullopt, Rng(seed));
}

LinkSpec wan() { return LinkSpec{155e6, 0.09, 0, 0.2}; }

TEST(Topology, FindDcByName) {
  Topology topo;
  topo.add_datacenter(make_dc("NA"));
  topo.add_datacenter(make_dc("EU"));
  EXPECT_EQ(topo.find_dc("NA"), 0u);
  EXPECT_EQ(topo.find_dc("EU"), 1u);
  EXPECT_THROW(topo.find_dc("XX"), std::out_of_range);
}

TEST(Topology, DirectRoute) {
  Topology topo;
  const DcId na = topo.add_datacenter(make_dc("NA"));
  const DcId eu = topo.add_datacenter(make_dc("EU"));
  topo.add_duplex_link(na, eu, wan());
  topo.compute_routes();
  const auto& r = topo.route(na, eu);
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0], topo.link(na, eu));
  EXPECT_TRUE(topo.route(na, na).empty());
}

TEST(Topology, MultiHopRouteViaHub) {
  // NA -- AS1 -- AUS: traffic NA->AUS must traverse both links in order.
  Topology topo;
  const DcId na = topo.add_datacenter(make_dc("NA"));
  const DcId as1 = topo.add_datacenter(make_dc("AS1"));
  const DcId aus = topo.add_datacenter(make_dc("AUS"));
  topo.add_duplex_link(na, as1, wan());
  topo.add_duplex_link(as1, aus, wan());
  topo.compute_routes();
  const auto& r = topo.route(na, aus);
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(r[0], topo.link(na, as1));
  EXPECT_EQ(r[1], topo.link(as1, aus));
}

TEST(Topology, BackupLinksIgnoredByRouting) {
  Topology topo;
  const DcId na = topo.add_datacenter(make_dc("NA"));
  const DcId eu = topo.add_datacenter(make_dc("EU"));
  const DcId afr = topo.add_datacenter(make_dc("AFR"));
  topo.add_duplex_link(na, eu, wan());
  topo.add_duplex_link(na, afr, wan());
  topo.add_duplex_link(eu, afr, wan(), /*usable=*/false);  // backup
  topo.compute_routes();
  const auto& r = topo.route(eu, afr);
  ASSERT_EQ(r.size(), 2u);  // EU -> NA -> AFR, not the backup direct link
  EXPECT_EQ(r[0], topo.link(eu, na));
  EXPECT_EQ(r[1], topo.link(na, afr));
}

TEST(Topology, UnreachableThrows) {
  Topology topo;
  const DcId a = topo.add_datacenter(make_dc("A"));
  const DcId b = topo.add_datacenter(make_dc("B"));
  topo.compute_routes();
  EXPECT_THROW(topo.route(a, b), std::logic_error);
}

TEST(Topology, RouteBeforeComputeThrows) {
  Topology topo;
  const DcId a = topo.add_datacenter(make_dc("A"));
  EXPECT_THROW(topo.route(a, a), std::logic_error);
}

TEST(Topology, DuplicateLinkRejected) {
  Topology topo;
  const DcId a = topo.add_datacenter(make_dc("A"));
  const DcId b = topo.add_datacenter(make_dc("B"));
  topo.add_link(a, b, wan());
  EXPECT_THROW(topo.add_link(a, b, wan()), std::logic_error);
}

TEST(DataCenter, TiersAndComponents) {
  auto dc = make_dc("NA");
  ServerSpec server = make_server_spec(TierNotation{2, 4, 32.0}, /*has_local_raid=*/true);
  dc->add_tier(TierKind::App, 2, server, LinkSpec{1e9, 0.0005, 0, 1.0});
  Tier* app = dc->tier(TierKind::App);
  ASSERT_NE(app, nullptr);
  EXPECT_EQ(app->server_count(), 2u);
  EXPECT_EQ(dc->tier(TierKind::Db), nullptr);
  // switch + client station + 2 x (nic + cpu + raid) + tier link.
  EXPECT_EQ(dc->owned_components().size(), 2u + 2u * 3u + 1u);
}

TEST(DataCenter, DuplicateTierRejected) {
  auto dc = make_dc("NA");
  ServerSpec server = make_server_spec(TierNotation{1, 4, 32.0}, true);
  dc->add_tier(TierKind::App, 1, server, LinkSpec{1e9, 0.0, 0, 1.0});
  EXPECT_THROW(dc->add_tier(TierKind::App, 1, server, LinkSpec{1e9, 0.0, 0, 1.0}),
               std::logic_error);
}

TEST(DataCenter, SanlessServerWithoutRaidRejected) {
  auto dc = make_dc("NA");
  ServerSpec server = make_server_spec(TierNotation{1, 4, 32.0}, /*has_local_raid=*/false);
  EXPECT_THROW(dc->add_tier(TierKind::Fs, 1, server, LinkSpec{1e9, 0.0, 0, 1.0}),
               std::logic_error);
}

TEST(Tier, DeterministicLoadBalancing) {
  auto dc = make_dc("NA");
  ServerSpec server = make_server_spec(TierNotation{3, 4, 32.0}, true);
  Tier& tier = dc->add_tier(TierKind::App, 3, server, LinkSpec{1e9, 0.0, 0, 1.0});
  EXPECT_EQ(&tier.pick_server(0), &tier.server(0));
  EXPECT_EQ(&tier.pick_server(4), &tier.server(1));
  EXPECT_EQ(&tier.pick_server(5), &tier.server(2));
}

TEST(Topology, RegisterWithSetsTickAndIds) {
  SimulationLoop loop({0.02, 0});
  Topology topo;
  const DcId na = topo.add_datacenter(make_dc("NA"));
  ServerSpec server = make_server_spec(TierNotation{1, 4, 32.0}, true);
  topo.dc(na).add_tier(TierKind::App, 1, server, LinkSpec{1e9, 0.0, 0, 1.0});
  topo.compute_routes();
  topo.register_with(loop);
  EXPECT_EQ(loop.agent_count(), topo.all_components().size());
  for (Component* c : topo.all_components()) {
    EXPECT_DOUBLE_EQ(c->tick_seconds(), 0.02);
    EXPECT_NE(c->id(), kInvalidAgent);
  }
}

TEST(SpecConversion, ServerNotation) {
  ServerSpec s = make_server_spec(TierNotation{1, 16, 64.0, 3.0}, true);
  EXPECT_EQ(s.cpu.sockets, 2u);
  EXPECT_EQ(s.cpu.cores_per_socket, 8u);
  EXPECT_DOUBLE_EQ(s.cpu.frequency_hz, 3e9);
  EXPECT_DOUBLE_EQ(s.memory.capacity_bytes, 64.0 * (1ull << 30));
  EXPECT_TRUE(s.raid.has_value());

  ServerSpec small = make_server_spec(TierNotation{1, 4, 8.0}, false);
  EXPECT_EQ(small.cpu.sockets, 1u);
  EXPECT_EQ(small.cpu.cores_per_socket, 4u);
  EXPECT_FALSE(small.raid.has_value());
}

TEST(SpecConversion, SanNotationRpmToRate) {
  EXPECT_DOUBLE_EQ(make_san_spec(SanNotation{1, 10, 15000.0}).hdd_rate_Bps, 180e6);
  EXPECT_DOUBLE_EQ(make_san_spec(SanNotation{1, 10, 10000.0}).hdd_rate_Bps, 140e6);
  EXPECT_DOUBLE_EQ(make_san_spec(SanNotation{1, 10, 7200.0}).hdd_rate_Bps, 110e6);
}

TEST(SpecConversion, LinkNotation) {
  LinkSpec l = make_link_spec(LinkNotation{0.155, 90.0, 0.2});
  EXPECT_DOUBLE_EQ(l.bandwidth_bps, 155e6);
  EXPECT_DOUBLE_EQ(l.latency_seconds, 0.09);
  EXPECT_DOUBLE_EQ(l.allocated_fraction, 0.2);
}

}  // namespace
}  // namespace gdisim
