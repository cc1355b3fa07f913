#include "sim/snapshot.h"

#include <stdexcept>
#include <string>

#include "config/compat.h"
#include "config/scenarios.h"
#include "core/sim_loop.h"
#include "hardware/component.h"
#include "hardware/topology.h"
#include "metrics/collector.h"

namespace gdisim {

namespace {

/// Deterministic walk over every server in the topology (DC id, then tier
/// kind, then server index) — the one ordering both the memory pre-bind and
/// the occupancy stream rely on.
template <typename Fn>
void for_each_server(Topology& topo, Fn&& fn) {
  for (DcId d = 0; d < static_cast<DcId>(topo.dc_count()); ++d) {
    DataCenter& dc = topo.dc(d);
    for (unsigned k = 0; k < static_cast<unsigned>(TierKind::kCount); ++k) {
      Tier* tier = dc.tier(static_cast<TierKind>(k));
      if (tier == nullptr) continue;
      for (std::size_t s = 0; s < tier->server_count(); ++s) fn(tier->server(s));
    }
  }
}

}  // namespace

void archive_simulation(StateArchive& ar, Scenario& scenario, SimulationLoop& loop,
                        Collector& collector) {
  // Header: the structural descriptor. On read, reject scenarios whose shape
  // differs from the snapshot's (perturbed rates are fine; perturbed
  // structure is not — stale AgentIds would alias unrelated agents).
  const SnapshotCompat current = SnapshotCompat::describe(scenario, loop, collector);
  SnapshotCompat stored = current;
  stored.archive_state(ar);
  if (ar.reading()) {
    const std::string d = SnapshotCompat::diff(stored, current);
    if (!d.empty()) {
      throw std::runtime_error("snapshot is structurally incompatible with this scenario:\n" +
                               d);
    }
  }

  // The registry translates pointer-linked state to stable ids; rebuilt from
  // scratch on every save *and* restore. Memory components are not agents,
  // so they are pre-bound here, keyed by their server's CPU agent.
  HandlerRegistry reg;
  SimulationLoop* loop_p = &loop;
  reg.set_agent_resolver([loop_p](AgentId id) { return loop_p->agent(id); });
  Topology& topo = *scenario.topology;
  for_each_server(topo,
                  [&reg](Server& server) { reg.bind_memory(server.cpu().id(), &server.memory()); });

  loop.archive_state(ar);

  for (auto& p : scenario.populations) p->archive_state(ar, reg);
  for (auto& l : scenario.launchers) l->archive_state(ar, reg);
  for (auto& d : scenario.synchreps) d->archive_state(ar, reg);
  for (auto& d : scenario.indexbuilds) d->archive_state(ar, reg);

  // Hardware components in AgentId order. Software agents are Agents but not
  // Components, so the dynamic_cast filter skips them (they archived above).
  for (std::size_t id = 0; id < loop.agent_count(); ++id) {
    if (auto* c = dynamic_cast<Component*>(loop.agent(static_cast<AgentId>(id)))) {
      c->archive_state(ar, reg);
    }
  }

  // Memory occupancy (memories are not agents; same deterministic walk).
  for_each_server(topo, [&ar](Server& server) { server.memory().archive_state(ar); });

  topo.archive_failure_state(ar);
  collector.archive_state(ar);
}

}  // namespace gdisim
