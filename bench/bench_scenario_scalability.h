// Shared agent population for the Ch. 4 scalability benches.
//
// The thesis measured engine scalability while simulating a six-data-center
// infrastructure with 432 cores and 168 disks — every agent integrates real
// queueing work on every tick. This header builds an equivalent population:
// queue-backed agents that are never idle, so the per-tick computation per
// agent matches the workload regime in which Table 4.1/4.2 were measured.
//
// The world drives its agents through the engine under test directly: two
// engine phases per tick (time increment, then interaction), the shape of
// the thesis' §4.3.1 loop. Simulated scenarios run serially in
// SimulationLoop; only these synthetic agents run on engine threads.
#pragma once

#include <memory>
#include <vector>

#include "ch4/engine.h"
#include "core/agent.h"
#include "queueing/fcfs_queue.h"

namespace gdisim::bench {

/// A hardware-like agent whose queues always have work: each tick advances
/// a multi-socket CPU model and a disk model, refilling jobs as they
/// complete (a saturated server, the worst case for the engine). The agent
/// is allocation-free after warmup — cross-thread heap churn would
/// otherwise serialize the run on the allocator, which is a property of the
/// *memory manager*, not of the dispatch mechanism Table 4.2 measures (the
/// thesis makes the same point about C# garbage collection).
class BusyQueueAgent final : public Agent {
 public:
  BusyQueueAgent() : cpu_(8, 2.5e9), disks_(4, 150e6) { refill(); }

  void on_tick(Tick) override {
    cpu_.advance(0.001);
    disks_.advance(0.001);
    refill();
  }

 private:
  void refill() {
    while (cpu_.total_jobs() < 48) cpu_.enqueue(2e6, nullptr);
    while (disks_.total_jobs() < 12) disks_.enqueue(3e5, nullptr);
  }

  FcfsMultiServerQueue cpu_;
  FcfsMultiServerQueue disks_;
};

struct ScalabilityWorld {
  std::vector<std::unique_ptr<BusyQueueAgent>> agents;
  ExecutionEngine& engine;
  Tick now = 0;

  ScalabilityWorld(std::size_t agent_count, ExecutionEngine& e) : engine(e) {
    agents.reserve(agent_count);
    for (std::size_t i = 0; i < agent_count; ++i) {
      agents.push_back(std::make_unique<BusyQueueAgent>());
    }
  }

  /// Runs every agent's two phases per tick until `end_tick` (exclusive).
  void run_until(Tick end_tick) {
    for (; now < end_tick; ++now) {
      const Tick t = now;
      engine.for_each(agents.size(), [this, t](std::size_t i) { agents[i]->on_tick(t); });
      engine.for_each(agents.size(),
                      [this, t](std::size_t i) { agents[i]->on_interactions(t + 1); });
    }
  }
};

/// Agents mirroring the thesis infrastructure size: 14 servers' worth of
/// sockets, SAN/RAID arrays, switches, links and client populations.
inline constexpr std::size_t kScalabilityAgents = 600;

}  // namespace gdisim::bench
