#include "core/sim_loop.h"

#include <algorithm>
#include <stdexcept>

#include "core/archive.h"
#include "core/audit.h"

namespace gdisim {

AgentId SimulationLoop::add_agent(Agent* agent) {
  if (agent == nullptr) throw std::invalid_argument("SimulationLoop: null agent");
  const AgentId id = static_cast<AgentId>(agents_.size());
  agent->set_id(id);
  agents_.push_back(agent);
  if (active_mode_) {
    agent->bind_wake_scheduler(this);
    // Starts set: the agent is scheduled (immediate_) for its first
    // iteration, so setup-time posts need not wake it. Each agent holds a
    // pointer to its own flag, so a reallocation rebinds them all.
    const char* flags_before = wake_flag_.data();
    wake_flag_.push_back(1);
    if (wake_flag_.data() == flags_before) {
      agent->set_wake_hint(&wake_flag_.back());
    } else {
      for (AgentId a = 0; a <= id; ++a) agents_[a]->set_wake_hint(&wake_flag_[a]);
    }
    epoch_mark_.push_back(0);
    in_always_.push_back(0);
    calendar_.ensure_agents(agents_.size());
    // Every agent runs its first iteration, exactly like the dense sweep;
    // its own next_wake_tick answer takes over from there.
    immediate_.push_back(id);
  }
  stats_.agents = agents_.size();
  stats_.per_agent_runs.push_back(0);
  return id;
}

void SimulationLoop::wake(AgentId id) {
  // The flag means "a wake would be redundant": the agent is pending in
  // woken_, admitted to the current iteration, or already scheduled in
  // immediate_ — in every case it runs an interaction phase at the earliest
  // tick a delivery could require, and rearm_active re-queries its wake time
  // before parking it.
  if (id >= wake_flag_.size() || wake_flag_[id] != 0) return;
  wake_flag_[id] = 1;
  woken_.push_back(id);
}

void SimulationLoop::admit(AgentId id) {
  if (epoch_mark_[id] == epoch_) return;
  epoch_mark_[id] = epoch_;
  // Admitted agents need no delivery wakes until rearm_active decides
  // otherwise.
  wake_flag_[id] = 1;
  active_.push_back(id);
}

void SimulationLoop::drain_woken() {
  if (woken_.empty()) return;
  // Admission order decides the order in which agents run their phases, so
  // it follows agent ids, not the order of the posts. Flags stay set: the
  // agents are active now, and rearm_active clears the flag if and when it
  // parks them.
  std::sort(woken_.begin(), woken_.end());
  for (AgentId id : woken_) admit(id);
  woken_.clear();
}

void SimulationLoop::maybe_collect(Tick now) {
  if (config_.collect_every > 0 && collect_cb_ && (now + 1) % config_.collect_every == 0) {
    collect_cb_(now + 1);
  }
}

void SimulationLoop::step_dense(Tick now) {
  const std::size_t n = agents_.size();

  // 1. Time increment control signals.
  for (std::size_t i = 0; i < n; ++i) {
    GDISIM_AUDIT_AGENT_TICK(agents_[i], now);
    agents_[i]->on_tick(now);
  }

  // 2. Agent interaction step: absorb everything that became visible during
  //    this tick (visible_at <= now + 1).
  for (std::size_t i = 0; i < n; ++i) agents_[i]->on_interactions(now + 1);

  stats_.agent_phase_runs += n;
  stats_.last_active = n;
  for (std::size_t i = 0; i < n; ++i) ++stats_.per_agent_runs[i];
  window_active_accum_ += static_cast<double>(n);
  ++window_iters_;

  // 3. Measurement collection control signal.
  maybe_collect(now);
}

void SimulationLoop::step_active(Tick now) {
  // Build this iteration's active set: sticky always-active agents, agents
  // due immediately, calendar wakes, and delivery wakes from the previous
  // interaction phase / collection / pre-tick hooks.
  active_.clear();
  ++epoch_;
  for (AgentId id : always_active_) admit(id);
  for (AgentId id : immediate_) admit(id);
  immediate_.clear();
  calendar_.collect_due(now, [this](AgentId id) { admit(id); });
  drain_woken();

  // 1. Time increment control signals for the active set.
  const std::size_t n_tick = active_.size();
  for (std::size_t i = 0; i < n_tick; ++i) {
    GDISIM_AUDIT_AGENT_TICK(agents_[active_[i]], now);
    agents_[active_[i]]->on_tick(now);
  }

  // Deliveries posted during the tick phase carry visible_at == now + 1 and
  // must be absorbed in *this* iteration's interaction phase (consistency
  // rule §4.3.3), so recipients woken by those posts join the set here.
  drain_woken();

  // 2. Interaction step; each agent also reports its next wake time, which
  //    rearm_active files once the phase is over.
  const std::size_t n_inter = active_.size();
  rearm_.resize(n_inter);
  for (std::size_t i = 0; i < n_inter; ++i) {
    Agent* a = agents_[active_[i]];
    a->on_interactions(now + 1);
    rearm_[i] = a->next_wake_tick(now + 1);
  }

  stats_.agent_phase_runs += n_inter;
  stats_.last_active = n_inter;
  window_active_accum_ += static_cast<double>(n_inter);
  ++window_iters_;

  // 3. Measurement collection control signal.
  maybe_collect(now);

  rearm_active(now);
}

void SimulationLoop::rearm_active(Tick now) {
  const Tick next = now + 1;
  for (std::size_t i = 0; i < rearm_.size(); ++i) {
    const AgentId id = active_[i];
    ++stats_.per_agent_runs[id];  // piggybacks on this pass over the set
    Tick at = rearm_[i];
    if (at == kEveryTick) {
      if (!in_always_[id]) {
        in_always_[id] = 1;
        always_active_.push_back(id);
      }
      continue;  // wake flag stays set: the agent runs every iteration
    }
    if (in_always_[id]) {
      in_always_[id] = 0;
      always_active_.erase(std::find(always_active_.begin(), always_active_.end(), id));
    }
    if (at > next) {
      // rearm_[i] was computed mid-phase; posts that landed after it (later
      // in the same interaction phase, or from the collection callback) were
      // suppressed by the still-set wake flag. The phase is over, so one
      // authoritative re-query closes that window before the agent is
      // parked or calendar-armed.
      at = agents_[id]->next_wake_tick(next);
    }
    if (at <= next) {
      immediate_.push_back(id);  // flag stays set: already scheduled
    } else if (at == kNeverTick) {
      wake_flag_[id] = 0;
    } else {
      // Calendar naps must remain interruptible by deliveries.
      wake_flag_[id] = 0;
      calendar_.arm(id, at, next);
    }
  }
}

void SimulationLoop::step() {
  const Tick now = now_;

  // 0. Pre-tick hooks (failure events, route updates, ...).
  for (auto& hook : pre_tick_hooks_) hook(now);

  if (active_mode_) {
    step_active(now);
  } else {
    step_dense(now);
  }

  ++stats_.iterations;
  ++now_;
}

double SimulationLoop::take_window_active_mean() {
  const double mean = window_iters_ > 0
                          ? window_active_accum_ / static_cast<double>(window_iters_)
                          : static_cast<double>(stats_.last_active);
  window_active_accum_ = 0.0;
  window_iters_ = 0;
  return mean;
}

void SimulationLoop::archive_state(StateArchive& ar) {
  ar.section("loop");
  ar.i64(now_);
  ar.u64(stats_.iterations);
  ar.u64(stats_.agent_phase_runs);
  ar.size_value(stats_.last_active);
  std::size_t n_agents = agents_.size();
  ar.size_value(n_agents);
  ar.expect_equal(n_agents, agents_.size(), "loop agent count");
  for (auto& runs : stats_.per_agent_runs) ar.u64(runs);
  ar.f64(window_active_accum_);
  ar.u64(window_iters_);
  if (ar.reading() && active_mode_) {
    // Conservative re-wake: discard the saved scheduling state and mark every
    // agent due for the next iteration. Each agent's next_wake_tick answer
    // re-parks it after one phase, so this cannot change results — it only
    // costs one dense-sized iteration, the same as the initial warm-up.
    active_.clear();
    always_active_.clear();
    std::fill(in_always_.begin(), in_always_.end(), 0);
    immediate_.clear();
    calendar_ = WakeCalendar(calendar_.wheel_slots());
    calendar_.ensure_agents(agents_.size());
    woken_.clear();
    std::fill(wake_flag_.begin(), wake_flag_.end(), 1);
    for (AgentId id = 0; id < static_cast<AgentId>(agents_.size()); ++id) immediate_.push_back(id);
  }
}

void SimulationLoop::run_until(Tick end_tick) {
  while (now_ < end_tick) step();
}

void SimulationLoop::run_for_seconds(double seconds) {
  run_until(now_ + clock_.to_ticks(seconds));
}

}  // namespace gdisim
