// Tier holon: an array of identical server holons plus the local network
// link that connects them to the data center switch (thesis §3.4.3).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "hardware/link.h"
#include "hardware/server.h"

namespace gdisim {

enum class TierKind : unsigned { App = 0, Db, Fs, Idx, kCount };

const char* tier_kind_name(TierKind kind);

class Tier {
 public:
  Tier(TierKind kind, std::string name, std::vector<std::unique_ptr<Server>> servers,
       const LinkSpec& local_link_spec);

  TierKind kind() const { return kind_; }
  const std::string& name() const { return name_; }
  std::size_t server_count() const { return servers_.size(); }
  Server& server(std::size_t i) { return *servers_[i]; }

  /// Deterministic load balancing: the selection key (derived from the
  /// operation instance) maps uniformly onto *alive* servers, which
  /// converges to round-robin in aggregate while staying independent of
  /// agent order. With every server down, requests still land on the
  /// first server (a degraded-mode choice: the alternative is dropping
  /// operations, which the cascade model cannot express).
  Server& pick_server(std::uint64_t key);

  /// Failure injection: dead servers are skipped by the load balancer; jobs
  /// already in their queues drain normally. Must only be called between
  /// agent phases (e.g. from a pre-tick hook).
  void set_server_alive(std::size_t index, bool alive);
  bool server_alive(std::size_t index) const { return alive_.at(index); }
  std::size_t alive_count() const;

  LinkComponent& local_link() { return *local_link_; }

  /// Mean CPU utilization across the tier's servers (the quantity plotted
  /// in Figures 5-7..5-10 and 6-12/6-13) over all ticks since the previous
  /// collection signal (`now` is the sample tick).
  double take_window_cpu_utilization(Tick now);

  /// Total memory occupied across the tier, bytes (workload-driven model).
  double total_memory_occupied() const;

  std::vector<Component*> owned_components();

  /// Snapshot round trip of the failure-injection state (which servers are
  /// alive); the alive index is rebuilt on read.
  void archive_failure_state(StateArchive& ar);

 private:
  TierKind kind_;  // ARCHIVE-TRANSIENT: construction-time identity
  std::string name_;  // ARCHIVE-TRANSIENT: construction-time identity
  std::vector<std::unique_ptr<Server>> servers_;
  std::vector<bool> alive_;
  std::vector<std::size_t> alive_index_;  ///< indices of alive servers
  std::unique_ptr<LinkComponent> local_link_;  // ARCHIVE-TRANSIENT: structural owner; the link archives via the component walk
};

}  // namespace gdisim
