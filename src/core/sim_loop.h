// The discrete time loop (thesis §4.3.1).
//
// A centralized timer drives the heartbeat: at every step all *active*
// agents receive the time-increment signal, then the interaction step
// absorbs deliveries, and periodically the measurement-collection signal
// samples agent state.
//
// Iteration with now == T means:
//   1. tick phase:        every active agent advances through (T, T+1]; work
//                         that completes is forwarded stamped visible_at = T+1.
//   2. interaction phase: every active agent absorbs deliveries
//                         visible_at <= T+1 into its service queues; they
//                         first receive service during tick T+1 (consistency
//                         rule §4.3.3).
//   3. collection phase:  every `collect_every` iterations the registered
//                         collection callback samples the whole system.
//
// Scheduler modes (DESIGN.md "Scheduler"): the default active-set scheduler
// runs the phases only for agents that are due — always-active agents,
// calendar wakes reported via Agent::next_wake_tick, and agents woken by a
// delivery posted to their inbox. kDenseSweep restores the original
// run-everyone-every-tick loop and serves as the reference-run oracle.
//
// Every phase runs inline on the calling thread (DESIGN.md "Concurrency
// model"); the Ch. 4 execution engines drive their own synthetic agents.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/agent.h"
#include "core/types.h"
#include "core/wake_calendar.h"

namespace gdisim {

enum class SchedulerMode {
  kActiveSet,   ///< phase cost proportional to active agents (default)
  kDenseSweep,  ///< original dense sweep; A/B oracle for the active set
};

struct SimLoopConfig {
  double tick_seconds = 0.01;
  /// Interval (in ticks) between measurement-collection signals; 0 disables.
  Tick collect_every = 0;
  SchedulerMode scheduler = SchedulerMode::kActiveSet;
};

/// Active-set occupancy counters (exposed as a collector series, in
/// gdisim_run's summary and in perfbench's core.* metrics). Under the dense
/// sweep every agent counts as active, so occupancy() == 1.
struct SchedulerStats {
  std::uint64_t iterations = 0;
  /// Sum over iterations of the interaction-phase active-set size.
  std::uint64_t agent_phase_runs = 0;
  std::size_t last_active = 0;
  std::size_t agents = 0;
  /// Iterations each agent participated in — the per-agent occupancy
  /// breakdown behind mean_active() (who keeps the set hot).
  std::vector<std::uint64_t> per_agent_runs;

  double mean_active() const {
    return iterations > 0 ? static_cast<double>(agent_phase_runs) /
                                static_cast<double>(iterations)
                          : 0.0;
  }
  double occupancy() const {
    return agents > 0 && iterations > 0 ? mean_active() / static_cast<double>(agents) : 1.0;
  }
};

class SimulationLoop : public AgentWakeScheduler {
 public:
  explicit SimulationLoop(SimLoopConfig config)
      : config_(config),
        clock_(config.tick_seconds),
        active_mode_(config.scheduler == SchedulerMode::kActiveSet) {}

  /// Registers an agent (non-owning) and assigns its dense id. Under the
  /// active-set scheduler this also binds the agent's wake hook; agents must
  /// be registered before the run starts.
  AgentId add_agent(Agent* agent);

  /// Runs until simulated `end_tick` (exclusive).
  void run_until(Tick end_tick);

  /// Runs a given simulated duration in seconds from the current time.
  void run_for_seconds(double seconds);

  /// Executes exactly one iteration (tick + interaction + maybe collection).
  void step();

  Tick now() const { return now_; }
  Agent* agent(AgentId id) const { return agents_[id]; }
  double now_seconds() const { return clock_.to_seconds(now_); }
  const TickClock& clock() const { return clock_; }
  const SimLoopConfig& config() const { return config_; }
  std::size_t agent_count() const { return agents_.size(); }
  SchedulerMode scheduler_mode() const {
    return active_mode_ ? SchedulerMode::kActiveSet : SchedulerMode::kDenseSweep;
  }

  /// AgentWakeScheduler: ensures the agent participates in the next phase.
  /// Posting to a bound Inbox calls this automatically.
  void wake(AgentId id) override;

  const SchedulerStats& scheduler_stats() const { return stats_; }

  /// Mean interaction-phase active-set size since the previous call — the
  /// collector probe behind the "scheduler/active_agents" series. Resets the
  /// window.
  double take_window_active_mean();

  /// Measurement-collection control signal target (thesis Collector
  /// Component). Invoked with the tick at which the sample is taken.
  void set_collect_callback(std::function<void(Tick)> cb) { collect_cb_ = std::move(cb); }

  /// Pre-tick hooks run at the start of each iteration, before any agent
  /// phase — the place to mutate shared state such as routing tables (used
  /// by the failure injector).
  void add_pre_tick_hook(std::function<void(Tick)> hook) {
    pre_tick_hooks_.push_back(std::move(hook));
  }

  /// Snapshot round trip of the loop's own state: the clock position and the
  /// scheduler statistics. Active-set bookkeeping (calendar, wake flags,
  /// woken ids) is deliberately *not* serialized — on read every agent is
  /// re-marked immediate, which is result-neutral: each agent's own
  /// next_wake_tick answer takes over after one iteration, exactly like the
  /// post-registration warm-up.
  void archive_state(StateArchive& ar);

 private:
  void step_dense(Tick now);
  void step_active(Tick now);
  void admit(AgentId id);
  void drain_woken();
  void rearm_active(Tick now);
  void maybe_collect(Tick now);

  SimLoopConfig config_;  // ARCHIVE-TRANSIENT: construction-time configuration
  TickClock clock_;  // ARCHIVE-TRANSIENT: construction-time configuration
  std::vector<Agent*> agents_;
  std::function<void(Tick)> collect_cb_;  // ARCHIVE-TRANSIENT: construction-time wiring
  std::vector<std::function<void(Tick)>> pre_tick_hooks_;  // ARCHIVE-TRANSIENT: construction-time wiring
  Tick now_ = 0;
  bool active_mode_;

  // --- Active-set scheduler state. ---
  /// Ids whose phases run this iteration; grows mid-iteration when tick-phase
  /// deliveries wake their recipients for the interaction phase.
  std::vector<AgentId> active_;
  /// next_wake_tick answers gathered during the interaction phase (indexed
  /// like active_).
  std::vector<Tick> rearm_;  // ARCHIVE-TRANSIENT: active-set scratch; restore re-wakes every agent
  /// Agents that answered kEveryTick — sticky members of every active set.
  std::vector<AgentId> always_active_;
  std::vector<char> in_always_;
  /// Agents due next iteration (wake <= now + 1); bypasses the wheel.
  std::vector<AgentId> immediate_;
  WakeCalendar calendar_;
  /// Per-iteration dedup for admissions.
  std::vector<std::uint64_t> epoch_mark_;  // ARCHIVE-TRANSIENT: per-iteration dedup; restore re-wakes every agent
  std::uint64_t epoch_ = 0;  // ARCHIVE-TRANSIENT: per-iteration dedup; restore re-wakes every agent

  // Delivery wakes: a per-agent flag dedups requests (cleared when
  // rearm_active parks the agent; each agent also holds a pointer to its
  // flag as a wake hint), and the ids of newly woken agents wait in woken_
  // until the next drain_woken admits them in id order.
  std::vector<char> wake_flag_;
  std::vector<AgentId> woken_;

  SchedulerStats stats_;
  double window_active_accum_ = 0.0;
  std::uint64_t window_iters_ = 0;
};

}  // namespace gdisim
