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
    if (wake_flag_count_ == wake_flag_cap_) {
      const std::size_t cap = wake_flag_cap_ == 0 ? 64 : wake_flag_cap_ * 2;
      auto grown = std::make_unique<std::atomic<bool>[]>(cap);
      for (std::size_t i = 0; i < wake_flag_count_; ++i) {
        grown[i].store(wake_flag_[i].load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
      }
      wake_flag_ = std::move(grown);
      wake_flag_cap_ = cap;
    }
    // Starts true: the agent is scheduled (immediate_) for its first
    // iteration, so setup-time posts need no shard push.
    wake_flag_[wake_flag_count_].store(true, std::memory_order_relaxed);
    ++wake_flag_count_;
    epoch_mark_.push_back(0);
    in_always_.push_back(0);
    calendar_.ensure_agents(agents_.size());
    // Every agent runs its first iteration, exactly like the dense sweep;
    // its own next_wake_tick answer takes over from there.
    immediate_.push_back(id);
  }
  if (serial_hint_state_ == 1) agent->on_engine_serial(true);
  stats_.agents = agents_.size();
  stats_.per_agent_runs.push_back(0);
  return id;
}

void SimulationLoop::wake(AgentId id) {
  if (id >= wake_flag_count_) return;
  std::atomic<bool>& flag = wake_flag_[id];
  // Test-and-test-and-set. The flag means "a wake would be redundant": the
  // agent is pending in a woken shard, admitted to the current iteration, or
  // already scheduled in immediate_ — in every case it runs an interaction
  // phase at the earliest tick a delivery could require, and rearm_active
  // re-queries its wake time after the barrier before parking it.
  if (flag.load(std::memory_order_relaxed)) return;
  if (engine_serial_) {
    // Only the master posts: no contention, so the shard lock and the atomic
    // read-modify-writes reduce to plain operations.
    flag.store(true, std::memory_order_relaxed);
    woken_[0].ids.push_back(id);
    woken_pending_.store(woken_pending_.load(std::memory_order_relaxed) + 1,
                         std::memory_order_relaxed);
    return;
  }
  if (flag.exchange(true, std::memory_order_acq_rel)) return;
  WokenShard& s = woken_[this_thread_shard() & (kWokenShards - 1)];
  s.lock.lock();
  s.ids.push_back(id);
  s.lock.unlock();
  woken_pending_.fetch_add(1, std::memory_order_release);
}

void SimulationLoop::admit(AgentId id) {
  if (epoch_mark_[id] == epoch_) return;
  epoch_mark_[id] = epoch_;
  // Admitted agents need no delivery wakes until rearm_active decides
  // otherwise; the flag suppresses the per-post shard traffic.
  wake_flag_[id].store(true, std::memory_order_relaxed);
  active_.push_back(id);
}

void SimulationLoop::drain_woken() {
  // Master-only, called at phase barriers: the engine handshake guarantees
  // no worker is still posting, so the flags can be cleared without racing
  // a concurrent wake() — which also makes the fast path exact, not racy.
  if (woken_pending_.load(std::memory_order_acquire) == 0) return;
  woken_pending_.store(0, std::memory_order_relaxed);
  woken_scratch_.clear();
  if (engine_serial_) {
    // Serial wakes all land in shard 0 (see wake()); no locks to take.
    woken_scratch_.swap(woken_[0].ids);
    woken_[0].ids.clear();
  } else {
    for (WokenShard& s : woken_) {
      s.lock.lock();
      woken_scratch_.insert(woken_scratch_.end(), s.ids.begin(), s.ids.end());
      s.ids.clear();
      s.lock.unlock();
    }
  }
  // Shard assignment depends on thread identity; sorting makes the admission
  // order reproducible. Flags stay set: the agents are active now, and
  // rearm_active clears the flag if and when it parks them.
  std::sort(woken_scratch_.begin(), woken_scratch_.end());
  for (AgentId id : woken_scratch_) admit(id);
}

void SimulationLoop::maybe_collect(Tick now) {
  if (config_.collect_every > 0 && collect_cb_ && (now + 1) % config_.collect_every == 0) {
    collect_cb_(now + 1);
  }
}

void SimulationLoop::step_dense(Tick now) {
  const std::size_t n = agents_.size();

  // 1. Time increment control signals.
  run_phase(n, [this, now](std::size_t i) {
    GDISIM_AUDIT_AGENT_TICK(agents_[i], now);
    agents_[i]->on_tick(now);
  });

  // 2. Agent interaction step: absorb everything that became visible during
  //    this tick (visible_at <= now + 1).
  run_phase(n, [this, now](std::size_t i) { agents_[i]->on_interactions(now + 1); });

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
  run_phase(n_tick, [this, now](std::size_t i) {
    GDISIM_AUDIT_AGENT_TICK(agents_[active_[i]], now);
    agents_[active_[i]]->on_tick(now);
  });

  // Deliveries posted during the tick phase carry visible_at == now + 1 and
  // must be absorbed in *this* iteration's interaction phase (consistency
  // rule §4.3.3), so recipients woken by those posts join the set here.
  drain_woken();

  // 2. Interaction step; each agent also reports its next wake time, which
  //    the master files after the barrier.
  const std::size_t n_inter = active_.size();
  rearm_.resize(n_inter);
  run_phase(n_inter, [this, now](std::size_t i) {
    Agent* a = agents_[active_[i]];
    a->on_interactions(now + 1);
    rearm_[i] = a->next_wake_tick(now + 1);
  });

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
      // The worker computed rearm_[i] mid-phase; posts that landed after it
      // (same interaction phase, or the collection callback) were suppressed
      // by the still-set wake flag. All posters have passed the barrier, so
      // one authoritative re-query closes that window before the agent is
      // parked or calendar-armed.
      at = agents_[id]->next_wake_tick(next);
    }
    if (at <= next) {
      immediate_.push_back(id);  // flag stays set: already scheduled
    } else if (at == kNeverTick) {
      wake_flag_[id].store(false, std::memory_order_relaxed);
    } else {
      // Calendar naps must remain interruptible by deliveries.
      wake_flag_[id].store(false, std::memory_order_relaxed);
      calendar_.arm(id, at, next);
    }
  }
}

void SimulationLoop::step() {
  const Tick now = now_;
  engine_serial_ = engine_->serial();
  // Bind (or rebind after a set_engine swap) the engine-mode hint: under a
  // serial engine, inboxes drop their cross-thread synchronization. Checked
  // every step so the hint can never be stale for the phases that follow.
  const int serial_now = engine_serial_ ? 1 : 0;
  if (serial_hint_state_ != serial_now) {
    for (Agent* agent : agents_) agent->on_engine_serial(engine_serial_);
    serial_hint_state_ = serial_now;
  }
  if (active_mode_ && !hints_bound_) {
    // The flag array no longer reallocates (agents register before the run
    // starts), so each agent can keep a direct pointer to its flag.
    for (AgentId id = 0; id < static_cast<AgentId>(agents_.size()); ++id) {
      agents_[id]->set_wake_hint(&wake_flag_[id]);
    }
    hints_bound_ = true;
  }

  // 0. Single-threaded pre-tick hooks (failure events, route updates, ...).
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
    for (WokenShard& s : woken_) {
      s.lock.lock();
      s.ids.clear();
      s.lock.unlock();
    }
    woken_pending_.store(0, std::memory_order_relaxed);
    woken_scratch_.clear();
    for (AgentId id = 0; id < static_cast<AgentId>(agents_.size()); ++id) {
      wake_flag_[id].store(true, std::memory_order_relaxed);
      immediate_.push_back(id);
    }
  }
}

void SimulationLoop::run_until(Tick end_tick) {
  while (now_ < end_tick) step();
}

void SimulationLoop::run_for_seconds(double seconds) {
  run_until(now_ + clock_.to_ticks(seconds));
}

}  // namespace gdisim
