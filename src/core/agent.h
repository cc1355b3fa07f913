// Agent base class and the deterministic interaction inbox.
//
// Thesis §4.3.2/§4.3.3: agents receive two control signals (time increment,
// measurement collection) plus interaction signals from other agents. The
// engine guarantees that an interaction scheduled for time t is never
// processed by an agent whose local clock has not yet reached t; the Inbox
// enforces this with visibility timestamps and restores determinism under
// multithreading by sorting deliveries on (visible_at, sender, sequence).
//
// Quiescence (active-set scheduling, DESIGN.md "Scheduler"): after its
// phases an agent reports the next tick at which it needs the time-increment
// signal. Agents that cannot predict their next activity return kEveryTick
// (the dense-sweep default); truly idle agents return kNeverTick and are
// re-armed by the loop when a delivery lands in their inbox, which forwards
// a wake request through the bound AgentWakeScheduler.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/archive.h"
#include "core/audit.h"
#include "core/tick_profiler.h"
#include "core/types.h"

namespace gdisim {

/// Wake-request sink bound to agents by the simulation loop when active-set
/// scheduling is enabled. wake() may be called from any worker thread.
class AgentWakeScheduler {
 public:
  virtual ~AgentWakeScheduler() = default;
  virtual void wake(AgentId id) = 0;
};

/// Test-and-test-and-set spinlock guarding the short inbox critical
/// sections; yields while contended so a preempted holder on a small host
/// does not cost the waiter a full scheduling quantum of spinning.
class SpinLock {
 public:
  void lock() noexcept {
    int spins = 0;
    while (flag_.exchange(true, std::memory_order_acquire)) {
      while (flag_.load(std::memory_order_relaxed)) {
        if (++spins >= 64) {
          std::this_thread::yield();
          spins = 0;
        }
      }
    }
  }
  void unlock() noexcept { flag_.store(false, std::memory_order_release); }

 private:
  std::atomic<bool> flag_{false};
};

/// Small dense id for the calling thread, used to pick a staging shard.
/// Ids are assigned on first use, so any thread — engine worker, master, or
/// a raw std::thread in a test — gets a stable shard.
inline std::size_t this_thread_shard() noexcept {
  static std::atomic<std::size_t> next{0};
  // GDISIM-SHARED: immutable after first read; only the id itself crosses threads (shard indices)
  thread_local const std::size_t shard = next.fetch_add(1, std::memory_order_relaxed);
  return shard;
}

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

  /// Queried by the loop after the interaction phase: the next tick at which
  /// this agent needs its phases to run. `next_now` is the upcoming tick
  /// (now + 1). Returning kEveryTick keeps the agent permanently in the
  /// active set (dense behaviour — the safe default); kNeverTick parks it
  /// until a delivery wakes it; any other value schedules a calendar wake
  /// (values <= next_now mean "next iteration").
  virtual Tick next_wake_tick(Tick next_now) const {
    (void)next_now;
    return kEveryTick;
  }

  /// Bound by the loop when active-set scheduling is on; unbound otherwise,
  /// which makes request_wake() a no-op under the dense sweep.
  void bind_wake_scheduler(AgentWakeScheduler* scheduler) { wake_scheduler_ = scheduler; }

  /// Optional pointer to this agent's "wake already pending/scheduled" flag,
  /// bound by the loop once agent registration is complete. Lets the hot
  /// request_wake path (one call per delivery) skip the virtual dispatch
  /// when a wake would be redundant anyway.
  void set_wake_hint(const std::atomic<bool>* hint) { wake_hint_ = hint; }

  /// Engine-mode hint bound by the loop at the start of each step when the
  /// mode changes (see SimulationLoop::step): true means a serial engine is
  /// running every phase on the master thread, so agents may drop
  /// cross-thread synchronization from their inboxes. Default no-op for
  /// agents without inboxes. The hint is process wiring, never archived.
  virtual void on_engine_serial(bool /*serial*/) {}

  /// Thread-safe: ensure this agent participates in the next phase.
  void request_wake() {
    if (wake_hint_ != nullptr && wake_hint_->load(std::memory_order_relaxed)) return;
    if (wake_scheduler_ != nullptr && id_ != kInvalidAgent) wake_scheduler_->wake(id_);
  }

  /// Monotonic per-agent sequence for deterministic delivery ordering.
  std::uint64_t next_send_seq() { return send_seq_++; }

  /// Snapshot round trip (DESIGN.md §8). Subclasses with state beyond the
  /// send sequence override and call the base first so every agent's bytes
  /// start identically. The wake-scheduler binding, wake hint and audit
  /// monotonicity fields are intentionally not serialized: they are
  /// process-local plumbing, re-established when the agent registers with a
  /// loop (restore conservatively re-wakes everyone, which is result-neutral
  /// because an idle tick contributes nothing).
  virtual void archive_state(StateArchive& ar, HandlerRegistry& /*registry*/) {
    ar.section("agent");
    ar.u64(send_seq_);
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
  // Loop wiring, rebound at registration; never archived.
  AgentWakeScheduler* wake_scheduler_ = nullptr;  // NOLINT(gdisim-snapshot-ptr) ARCHIVE-TRANSIENT: loop wiring; rebound when agents register
  const std::atomic<bool>* wake_hint_ = nullptr;  // NOLINT(gdisim-snapshot-ptr) ARCHIVE-TRANSIENT: loop wiring; rebound when agents register
  std::uint64_t send_seq_ = 0;
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

/// Thread-safe inbox with deterministic drain order. Senders post from any
/// worker thread during the tick phase; the owner drains during its own
/// interaction phase.
///
/// The hot path is sharded: posts go to one of kShards staging buffers
/// picked by the calling thread's id, each guarded by its own spinlock, so
/// concurrent senders do not serialize on a single per-agent mutex. The
/// shards are merged at drain time and sorted on (visible_at, sender, seq),
/// which makes the drained order independent of both thread scheduling and
/// shard assignment — the determinism argument is unchanged from the
/// single-mutex version.
template <typename T>
class Inbox {
 public:
  /// Binds the owning agent so posts can request a wake when the owner is
  /// parked by the active-set scheduler.
  // GDISIM-SERIAL-OK: construction-time wiring, runs before the engine starts
  void bind_owner(Agent* owner) { owner_ = owner; }

  /// Pre-sizes the staging shards for an expected in-flight delivery count
  /// (e.g. a population's slot capacity). Every shard gets the full
  /// expectation: shard choice follows the *sender's* thread id, so in a
  /// single-threaded engine one shard carries everything. This trades a few
  /// KB per inbox for never regrowing the shard buffers mid-run.
  void reserve_total(std::size_t expected) {
    for (Shard& s : shards_) {
      s.lock.lock();
      s.pending.reserve(expected);
      s.lock.unlock();
    }
  }

  /// Engine-serial fast path toggle (see Agent::on_engine_serial). Under a
  /// serial engine one thread both posts and drains, so the shard spinlock
  /// and the atomic read-modify-writes reduce to plain loads and stores —
  /// measurable at tens of millions of posts per run. Content and drain
  /// order are unchanged: serial posts all land in shard 0 and drains merge
  /// and sort shards the same way in both modes.
  void set_serial(bool serial) {
    serial_ = serial;
#if GDISIM_SERIAL_GUARD_ENABLED
    serial_owner_ = serial ? std::this_thread::get_id() : std::thread::id{};
#endif
  }

  void post(Tick visible_at, AgentId sender, std::uint64_t seq, T payload) {
    if (serial_) {
      check_serial_owner();
      approx_size_.store(approx_size_.load(std::memory_order_relaxed) + 1,
                         std::memory_order_relaxed);
      Shard& s = shards_[0];
      s.count.store(s.count.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
      s.pending.push_back(Delivery<T>{visible_at, sender, seq, std::move(payload)});
      if (owner_ != nullptr) owner_->request_wake();
      return;
    }
    // Conservative count first: empty() may report false positives while a
    // post is in flight, but never a false "empty" for a delivery that
    // happened-before the check.
    approx_size_.fetch_add(1, std::memory_order_release);
    Shard& s = shards_[this_thread_shard() & (kShards - 1)];
    s.count.fetch_add(1, std::memory_order_release);
    s.lock.lock();
    s.pending.push_back(Delivery<T>{visible_at, sender, seq, std::move(payload)});
    s.lock.unlock();
    if (owner_ != nullptr) owner_->request_wake();
  }

  /// Removes all deliveries with visible_at <= now into `ready` (cleared
  /// first), sorted by (visible_at, sender, seq) so the result does not
  /// depend on thread scheduling. Callers that drain every tick should pass
  /// a reusable scratch vector so its capacity amortizes across drains.
  void drain_visible_into(Tick now, std::vector<Delivery<T>>& ready) {
    if (serial_) check_serial_owner();
    ready.clear();
    // Fast path: agents poll their inbox every active tick; most polls find
    // it empty, and touching 8 locks 200M times would dominate the profile.
    if (approx_size_.load(std::memory_order_acquire) == 0) return;
    // Scoped after the empty-poll exit so the bucket counts drains that
    // actually move mail, not 200M no-op polls.
    GDISIM_TICK_PROF_SCOPE(tickprof::Bucket::kInbox);
    for (Shard& s : shards_) {
      // Per-shard count: posts land on the sender's own shard, so most
      // drains only need the one or two shards that actually have mail.
      if (s.count.load(std::memory_order_acquire) == 0) continue;
      if (!serial_) s.lock.lock();
      auto split = std::partition(s.pending.begin(), s.pending.end(),
                                  [now](const Delivery<T>& d) { return d.visible_at > now; });
      const std::size_t taken = static_cast<std::size_t>(s.pending.end() - split);
      for (auto it = split; it != s.pending.end(); ++it) ready.push_back(std::move(*it));
      s.pending.erase(split, s.pending.end());
      if (!serial_) s.lock.unlock();
      if (taken > 0) {
        if (serial_) {
          s.count.store(s.count.load(std::memory_order_relaxed) -
                            static_cast<std::uint32_t>(taken),
                        std::memory_order_relaxed);
        } else {
          s.count.fetch_sub(static_cast<std::uint32_t>(taken), std::memory_order_release);
        }
      }
    }
    if (!ready.empty()) {
      if (serial_) {
        approx_size_.store(approx_size_.load(std::memory_order_relaxed) -
                               static_cast<std::int64_t>(ready.size()),
                           std::memory_order_relaxed);
      } else {
        approx_size_.fetch_sub(static_cast<std::int64_t>(ready.size()),
                               std::memory_order_release);
      }
      GDISIM_AUDIT_CHECK(approx_size_.load(std::memory_order_relaxed) >= 0,
                         "inbox occupancy underflow: drained more than was posted");
    }
    if (ready.size() > 1) {
      std::sort(ready.begin(), ready.end(), [](const Delivery<T>& a, const Delivery<T>& b) {
        if (a.visible_at != b.visible_at) return a.visible_at < b.visible_at;
        if (a.sender != b.sender) return a.sender < b.sender;
        return a.seq < b.seq;
      });
    }
#if GDISIM_AUDIT_ENABLED
    // Drain-order hash: FNV-fold this drain (owner, tick, sorted delivery
    // keys), then xor it into the global accumulator. Identical workloads
    // must produce identical drain multisets whatever the engine or thread
    // count, and xor makes the fold order irrelevant.
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

  bool empty() const { return approx_size_.load(std::memory_order_acquire) == 0; }

  /// Snapshot round trip. `payload_fn(ar, payload)` archives one payload.
  ///
  /// Saving is strictly read-only (a checkpoint must not perturb the run):
  /// the shards are copied out under their locks, merged and sorted on
  /// (visible_at, sender, seq) — the same canonical order a drain would use —
  /// so the bytes are independent of which thread posted what. Loading
  /// places everything in shard 0; drains merge and re-sort anyway, so
  /// delivery order is unaffected and a restore→re-save round trip is
  /// byte-identical.
  template <typename Fn>
  void archive_state(StateArchive& ar, Fn&& payload_fn) {
    ar.section("inbox");
    if (ar.writing()) {
      std::vector<Delivery<T>> all;
      for (Shard& s : shards_) {
        s.lock.lock();
        all.insert(all.end(), s.pending.begin(), s.pending.end());
        s.lock.unlock();
      }
      std::sort(all.begin(), all.end(), [](const Delivery<T>& a, const Delivery<T>& b) {
        if (a.visible_at != b.visible_at) return a.visible_at < b.visible_at;
        if (a.sender != b.sender) return a.sender < b.sender;
        return a.seq < b.seq;
      });
      std::size_t n = all.size();
      ar.size_value(n);
      for (Delivery<T>& d : all) {
        ar.i64(d.visible_at);
        ar.u32(d.sender);
        ar.u64(d.seq);
        payload_fn(ar, d.payload);
      }
    } else {
      for (Shard& s : shards_) {
        s.lock.lock();
        s.pending.clear();
        s.lock.unlock();
        s.count.store(0, std::memory_order_release);
      }
      std::size_t n = 0;
      ar.size_value(n);
      Shard& s0 = shards_[0];
      s0.pending.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        Delivery<T> d;
        ar.i64(d.visible_at);
        ar.u32(d.sender);
        ar.u64(d.seq);
        payload_fn(ar, d.payload);
        s0.pending.push_back(std::move(d));
      }
      s0.count.store(static_cast<std::uint32_t>(n), std::memory_order_release);
      approx_size_.store(static_cast<std::int64_t>(n), std::memory_order_release);
    }
  }

  /// Exact once all posters have synchronized with the caller (the counter
  /// is adjusted on every post/drain).
  std::size_t size() const {
    const std::int64_t n = approx_size_.load(std::memory_order_acquire);
    return n > 0 ? static_cast<std::size_t>(n) : 0;
  }

 private:
  /// Serial mode strips the shard locks, which is only sound while a single
  /// thread both posts and drains. Audit builds report a violation through
  /// the failure handler; plain debug builds assert; release builds compile
  /// the check away.
  void check_serial_owner() const {
#if GDISIM_SERIAL_GUARD_ENABLED
    const bool ok = std::this_thread::get_id() == serial_owner_;
#if GDISIM_AUDIT_ENABLED
    GDISIM_AUDIT_CHECK(ok,
                       "inbox serial fast path used from a thread other than "
                       "the one that enabled it");
#else
    assert(ok && "inbox serial fast path used off the owning thread");
#endif
    (void)ok;
#endif
  }

  static constexpr std::size_t kShards = 8;
  struct alignas(64) Shard {
    SpinLock lock;
    /// Deliveries staged in this shard; same conservative semantics as
    /// approx_size_ but lets the drain skip empty shards' locks.
    std::atomic<std::uint32_t> count{0};
    std::vector<Delivery<T>> pending;
  };

  std::array<Shard, kShards> shards_;
  Agent* owner_ = nullptr;  // NOLINT(gdisim-snapshot-ptr) ARCHIVE-TRANSIENT: bound at construction
  std::atomic<std::int64_t> approx_size_{0};
  bool serial_ = false;  // ARCHIVE-TRANSIENT: engine wiring, rebound by the loop each run
#if GDISIM_SERIAL_GUARD_ENABLED
  /// Thread that enabled serial mode; only it may use the unlocked paths.
  std::thread::id serial_owner_{};  // ARCHIVE-TRANSIENT: guard diagnostic, rebound with serial_
#endif
};

}  // namespace gdisim
