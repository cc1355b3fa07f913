// Agent base class and the deterministic interaction inbox.
//
// Thesis §4.3.2/§4.3.3: agents receive two control signals (time increment,
// measurement collection) plus interaction signals from other agents. The
// engine guarantees that an interaction scheduled for time t is never
// processed by an agent whose local clock has not yet reached t; the Inbox
// enforces this with visibility timestamps and makes the drain order a pure
// function of the deliveries by sorting them on (visible_at, sender,
// sequence).
//
// Quiescence (active-set scheduling, DESIGN.md "Scheduler"): after its
// phases an agent reports the next tick at which it needs the time-increment
// signal. The default answer, the next tick, keeps an agent due every tick
// (dense behaviour); truly idle agents return kNeverTick and are re-admitted
// by the loop when a delivery lands in their inbox, which records a wake
// request in the loop's DeliveryWakes.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/archive.h"
#include "core/audit.h"
#include "core/types.h"

namespace gdisim {

/// Delivery-wake requests of the active-set loop, which owns them: one flag
/// per agent, set while a wake would be redundant (the agent is woken,
/// admitted or scheduled for the next iteration), and the ids woken since
/// the loop last admitted them.
struct DeliveryWakes {
  std::vector<char> flag;
  std::vector<AgentId> woken;

  void wake(AgentId id) {
    if (flag[id] != 0) return;
    flag[id] = 1;
    woken.push_back(id);
  }
};

class Agent {
 public:
  virtual ~Agent() = default;

  /// Stable diagnostic name ("dc=NA/tier=app/server=2/cpu").
  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  AgentId id() const { return id_; }
  void set_id(AgentId id) { id_ = id; }

  /// Time increment control signal: advance through (now, now+1].
  virtual void on_tick(Tick now) = 0;

  /// Interaction step: absorb deliveries that became visible at <= now+1.
  virtual void on_interactions(Tick /*now*/) {}

  /// Asked by the loop once per active iteration, after the interaction
  /// phase and the collection: the next tick at which this agent needs its
  /// phases to run. `next_now` is the upcoming tick (now + 1). Values <=
  /// next_now mean "next iteration" (the default: due every tick, exactly
  /// the dense sweep); kNeverTick parks the agent until a delivery wakes it;
  /// any later tick schedules a calendar wake.
  virtual Tick next_wake_tick(Tick next_now) const { return next_now; }

  /// Bound by the loop when active-set scheduling is on; unbound otherwise,
  /// which makes request_wake() a no-op under the dense sweep.
  void bind_wakes(DeliveryWakes* wakes) { wakes_ = wakes; }

  /// Ensures this agent participates in the next phase.
  void request_wake() {
    if (wakes_ != nullptr) wakes_->wake(id_);
  }

  /// Snapshot round trip (DESIGN.md §8). Subclasses with state override and
  /// call the base first so every agent's bytes start identically. The wake
  /// binding and audit monotonicity fields are intentionally not serialized:
  /// they are process-local plumbing, re-established when the agent
  /// registers with a loop (restore conservatively re-wakes everyone, which
  /// is result-neutral because an idle tick contributes nothing).
  virtual void archive_state(StateArchive& ar, HandlerRegistry& /*registry*/) {
    ar.section("agent");
  }

#if GDISIM_AUDIT_ENABLED
  /// Audit hook (GDISIM_AUDIT_AGENT_TICK): the time-increment signal must
  /// arrive with strictly increasing `now` — an agent ticked twice at the
  /// same tick, or backwards, means the scheduler double-admitted it.
  void audit_tick_signal(Tick now) {
    if (audit_ticked_ && now <= audit_last_tick_) {
      audit::fail("agent clock not monotonic: tick signal repeated or reversed");
    }
    audit_last_tick_ = now;
    audit_ticked_ = true;
  }
#endif

 private:
  std::string name_;  // ARCHIVE-TRANSIENT: construction-time identity; SnapshotCompat guards agent order
  AgentId id_ = kInvalidAgent;  // ARCHIVE-TRANSIENT: construction-time identity; SnapshotCompat guards agent order
  DeliveryWakes* wakes_ = nullptr;  // NOLINT(gdisim-snapshot-ptr) ARCHIVE-TRANSIENT: loop wiring; rebound when agents register
#if GDISIM_AUDIT_ENABLED
  Tick audit_last_tick_ = 0;  // ARCHIVE-TRANSIENT: audit diagnostic; re-arms after restore
  bool audit_ticked_ = false;  // ARCHIVE-TRANSIENT: audit diagnostic; re-arms after restore
#endif
};

/// A timestamped delivery from one agent to another.
template <typename T>
struct Delivery {
  Tick visible_at = 0;
  AgentId sender = kInvalidAgent;
  std::uint64_t seq = 0;
  T payload;
};

/// Inbox with deterministic drain order. Senders post during their phases;
/// the owner drains during its own interaction phase. Deliveries are sorted
/// on (visible_at, sender, seq) at drain time, so the drained order depends
/// only on what was posted, never on the order in which agents ran.
template <typename T>
class Inbox {
 public:
  /// Binds the owning agent so posts can request a wake when the owner is
  /// parked by the active-set scheduler.
  void bind_owner(Agent* owner) { owner_ = owner; }

  /// Pre-sizes the pending buffer for an expected in-flight delivery count
  /// (e.g. a population's slot capacity) so it never regrows mid-run.
  void reserve_total(std::size_t expected) { pending_.reserve(expected); }

  /// No-op: the inbox is single-threaded by construction. Kept because
  /// perfbench/gdibench.cc calls it.
  void set_serial(bool /*serial*/) {}

  void post(Tick visible_at, AgentId sender, std::uint64_t seq, T payload) {
    pending_.push_back(Delivery<T>{visible_at, sender, seq, std::move(payload)});
    if (owner_ != nullptr) owner_->request_wake();
  }

  /// Removes all deliveries with visible_at <= now into `ready` (cleared
  /// first), sorted by (visible_at, sender, seq). Callers that drain every
  /// tick should pass a reusable scratch vector so its capacity amortizes
  /// across drains.
  void drain_visible_into(Tick now, std::vector<Delivery<T>>& ready) {
    ready.clear();
    // Agents poll their inbox every active tick and most polls find it
    // empty.
    if (pending_.empty()) return;
    auto split = std::partition(pending_.begin(), pending_.end(),
                                [now](const Delivery<T>& d) { return d.visible_at > now; });
    for (auto it = split; it != pending_.end(); ++it) ready.push_back(std::move(*it));
    pending_.erase(split, pending_.end());
    if (ready.size() > 1) std::sort(ready.begin(), ready.end(), DeliveryOrder{});
#if GDISIM_AUDIT_ENABLED
    // Drain-order hash: FNV-fold this drain (owner, tick, sorted delivery
    // keys), then xor it into the global accumulator. Identical workloads
    // must produce identical drain multisets whatever the scheduler mode,
    // and xor makes the fold order irrelevant.
    if (!ready.empty()) {
      std::uint64_t h = 0xcbf29ce484222325ULL;
      const auto mix = [&h](std::uint64_t v) {
        h ^= v;
        h *= 0x100000001b3ULL;
      };
      mix(owner_ != nullptr ? owner_->id() : kInvalidAgent);
      mix(static_cast<std::uint64_t>(now));
      for (const Delivery<T>& d : ready) {
        mix(static_cast<std::uint64_t>(d.visible_at));
        mix(d.sender);
        mix(d.seq);
      }
      GDISIM_AUDIT_FOLD_DRAIN(h);
    }
#endif
  }

  /// Convenience wrapper returning a fresh vector; prefer drain_visible_into
  /// on hot paths.
  std::vector<Delivery<T>> drain_visible(Tick now) {
    std::vector<Delivery<T>> ready;
    drain_visible_into(now, ready);
    return ready;
  }

  bool empty() const { return pending_.empty(); }
  std::size_t size() const { return pending_.size(); }

  /// Snapshot round trip. `payload_fn(ar, payload)` archives one payload.
  ///
  /// Saving is strictly read-only (a checkpoint must not perturb the run):
  /// the pending deliveries are copied out and sorted on (visible_at,
  /// sender, seq) — the same canonical order a drain would use — so the
  /// bytes do not depend on the order of the posts, and a restore→re-save
  /// round trip is byte-identical.
  template <typename Fn>
  void archive_state(StateArchive& ar, Fn&& payload_fn) {
    ar.section("inbox");
    if (ar.writing()) {
      std::vector<Delivery<T>> all = pending_;
      std::sort(all.begin(), all.end(), DeliveryOrder{});
      std::size_t n = all.size();
      ar.size_value(n);
      for (Delivery<T>& d : all) {
        ar.i64(d.visible_at);
        ar.u32(d.sender);
        ar.u64(d.seq);
        payload_fn(ar, d.payload);
      }
    } else {
      pending_.clear();
      std::size_t n = 0;
      ar.size_value(n);
      pending_.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        Delivery<T> d;
        ar.i64(d.visible_at);
        ar.u32(d.sender);
        ar.u64(d.seq);
        payload_fn(ar, d.payload);
        pending_.push_back(std::move(d));
      }
    }
  }

 private:
  struct DeliveryOrder {
    bool operator()(const Delivery<T>& a, const Delivery<T>& b) const {
      if (a.visible_at != b.visible_at) return a.visible_at < b.visible_at;
      if (a.sender != b.sender) return a.sender < b.sender;
      return a.seq < b.seq;
    }
  };

  std::vector<Delivery<T>> pending_;
  Agent* owner_ = nullptr;  // NOLINT(gdisim-snapshot-ptr) ARCHIVE-TRANSIENT: bound at construction
};

}  // namespace gdisim
