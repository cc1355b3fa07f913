#include "hardware/tier.h"

#include <stdexcept>

#include "core/archive.h"

namespace gdisim {

const char* tier_kind_name(TierKind kind) {
  switch (kind) {
    case TierKind::App: return "app";
    case TierKind::Db: return "db";
    case TierKind::Fs: return "fs";
    case TierKind::Idx: return "idx";
    default: return "?";
  }
}

Tier::Tier(TierKind kind, std::string name, std::vector<std::unique_ptr<Server>> servers,
           const LinkSpec& local_link_spec)
    : kind_(kind), name_(std::move(name)), servers_(std::move(servers)) {
  if (servers_.empty()) throw std::invalid_argument("Tier: no servers");
  alive_.assign(servers_.size(), true);
  alive_index_.resize(servers_.size());
  for (std::size_t i = 0; i < servers_.size(); ++i) alive_index_[i] = i;
  local_link_ = std::make_unique<LinkComponent>(local_link_spec);
  local_link_->set_name(name_ + "/link");
}

Server& Tier::pick_server(std::uint64_t key) {
  if (alive_index_.empty()) return *servers_[0];  // degraded mode
  return *servers_[alive_index_[key % alive_index_.size()]];
}

void Tier::set_server_alive(std::size_t index, bool alive) {
  alive_.at(index) = alive;
  alive_index_.clear();
  for (std::size_t i = 0; i < servers_.size(); ++i) {
    if (alive_[i]) alive_index_.push_back(i);
  }
}

std::size_t Tier::alive_count() const { return alive_index_.size(); }

void Tier::archive_failure_state(StateArchive& ar) {
  ar.section("tier");
  std::size_t n = alive_.size();
  ar.size_value(n);
  ar.expect_equal(n, alive_.size(), "tier server count");
  for (std::size_t i = 0; i < alive_.size(); ++i) {
    bool alive = alive_[i];
    ar.boolean(alive);
    alive_[i] = alive;
  }
  if (ar.reading()) {
    alive_index_.clear();
    for (std::size_t i = 0; i < servers_.size(); ++i) {
      if (alive_[i]) alive_index_.push_back(i);
    }
  }
}

double Tier::take_window_cpu_utilization(Tick now) {
  double sum = 0.0;
  for (auto& s : servers_) sum += s->cpu().take_window_utilization(now);
  return sum / static_cast<double>(servers_.size());
}

double Tier::total_memory_occupied() const {
  double sum = 0.0;
  for (const auto& s : servers_) sum += s->memory().occupied_bytes();
  return sum;
}

std::vector<Component*> Tier::owned_components() {
  std::vector<Component*> out;
  for (auto& s : servers_) {
    for (Component* c : s->owned_components()) out.push_back(c);
  }
  out.push_back(local_link_.get());
  return out;
}

}  // namespace gdisim
