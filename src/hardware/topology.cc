#include "hardware/topology.h"

#include <deque>
#include <stdexcept>

#include "core/archive.h"

namespace gdisim {

DcId Topology::add_datacenter(std::unique_ptr<DataCenter> dc) {
  const DcId id = static_cast<DcId>(dcs_.size());
  dc->set_id(id);
  dcs_.push_back(std::move(dc));
  routes_ready_ = false;
  return id;
}

LinkComponent& Topology::add_link(DcId from, DcId to, const LinkSpec& spec, bool usable) {
  auto key = std::make_pair(from, to);
  if (links_.count(key)) throw std::logic_error("Topology: duplicate link");
  auto link = std::make_unique<LinkComponent>(spec);
  link->set_name("link/" + dcs_[from]->name() + "->" + dcs_[to]->name());
  LinkComponent& ref = *link;
  links_[key] = std::move(link);
  link_usable_[key] = usable;
  routes_ready_ = false;
  return ref;
}

void Topology::add_duplex_link(DcId a, DcId b, const LinkSpec& spec, bool usable) {
  add_link(a, b, spec, usable);
  add_link(b, a, spec, usable);
}

DcId Topology::find_dc(const std::string& name) const {
  for (const auto& dc : dcs_) {
    if (dc->name() == name) return dc->id();
  }
  throw std::out_of_range("Topology: no data center named " + name);
}

LinkComponent* Topology::link(DcId from, DcId to) {
  auto it = links_.find(std::make_pair(from, to));
  return it == links_.end() ? nullptr : it->second.get();
}

void Topology::compute_routes() {
  const std::size_t n = dcs_.size();
  routes_.assign(n, std::vector<std::vector<LinkComponent*>>(n));
  for (DcId src = 0; src < n; ++src) {
    // BFS from src over usable links; neighbors visited in ascending id
    // order (std::map iteration), so tie-breaking is deterministic.
    std::vector<DcId> parent(n, kInvalidDc);
    std::vector<bool> seen(n, false);
    std::deque<DcId> frontier{src};
    seen[src] = true;
    while (!frontier.empty()) {
      const DcId u = frontier.front();
      frontier.pop_front();
      for (auto& [key, link] : links_) {
        if (key.first != u || !link_usable_[key]) continue;
        const DcId v = key.second;
        if (seen[v]) continue;
        seen[v] = true;
        parent[v] = u;
        frontier.push_back(v);
      }
    }
    for (DcId dst = 0; dst < n; ++dst) {
      if (dst == src || !seen[dst]) continue;
      std::vector<LinkComponent*> hops;
      for (DcId v = dst; v != src; v = parent[v]) {
        hops.push_back(links_.at(std::make_pair(parent[v], v)).get());
      }
      routes_[src][dst].assign(hops.rbegin(), hops.rend());
    }
  }
  routes_ready_ = true;
}

void Topology::set_link_usable(DcId from, DcId to, bool usable) {
  auto key = std::make_pair(from, to);
  if (!links_.count(key)) throw std::out_of_range("Topology: no such link");
  link_usable_[key] = usable;
  compute_routes();
}

bool Topology::link_usable(DcId from, DcId to) const {
  auto it = link_usable_.find(std::make_pair(from, to));
  return it != link_usable_.end() && it->second;
}

const std::vector<LinkComponent*>& Topology::route(DcId from, DcId to) const {
  if (!routes_ready_) throw std::logic_error("Topology: compute_routes() not called");
  const auto& r = routes_[from][to];
  if (from != to && r.empty()) {
    throw std::logic_error("Topology: no route " + dcs_[from]->name() + "->" + dcs_[to]->name());
  }
  return r;
}

std::vector<Component*> Topology::all_components() {
  std::vector<Component*> out;
  for (auto& dc : dcs_) {
    for (Component* c : dc->owned_components()) out.push_back(c);
  }
  for (auto& [key, link] : links_) out.push_back(link.get());
  return out;
}

void Topology::archive_failure_state(StateArchive& ar) {
  ar.section("topology");
  std::size_t ndc = dcs_.size();
  ar.size_value(ndc);
  ar.expect_equal(ndc, dcs_.size(), "data center count");
  for (auto& dc : dcs_) {
    for (unsigned k = 0; k < static_cast<unsigned>(TierKind::kCount); ++k) {
      if (Tier* tier = dc->tier(static_cast<TierKind>(k))) {
        tier->archive_failure_state(ar);
      }
    }
  }
  std::size_t nlinks = link_usable_.size();
  ar.size_value(nlinks);
  ar.expect_equal(nlinks, link_usable_.size(), "WAN link count");
  for (auto& [key, usable] : link_usable_) {
    bool value = usable;
    ar.boolean(value);
    usable = value;
  }
  if (ar.reading()) compute_routes();
}

void Topology::register_with(SimulationLoop& loop) {
  for (Component* c : all_components()) {
    c->set_tick_seconds(loop.clock().tick_seconds());
    loop.add_agent(c);
  }
}

}  // namespace gdisim
