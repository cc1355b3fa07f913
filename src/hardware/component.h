// Component: the agent base class for all hardware models.
//
// A component is a low-level hardware element (CPU, NIC, link, RAID, ...)
// modeled as a queue or network of queues (thesis §3.4.2). Stage jobs are
// submitted through a deterministic inbox; the interaction
// phase absorbs them into the discipline queue and the tick phase serves
// them. Completions are reported synchronously to the stage handler, which
// routes the in-flight message to its next component.
//
// Sub-tick stages: the route builder may decide that a stage's service
// demand is far below one tick (a 2 KB request on a 10 Gb/s switch). Such
// stages are not enqueued — their work is *accounted* against the component
// via account_instant() so utilization stays correct, and the message skips
// straight to its next stage. Heavily-loaded stages (bulk transfers, CPU
// bursts, disk I/O) always queue, so contention effects are preserved where
// they matter. This keeps the tick length an order of magnitude below the
// canonical costs, as the thesis requires, without making every metadata
// hop cost a full tick.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/agent.h"
#include "core/audit.h"
#include "core/tick_profiler.h"
#include "core/types.h"
#include "queueing/job.h"

namespace gdisim {

class Component;

/// Implemented by the software layer's in-flight message state. Called from
/// a component's tick phase when the message's current stage finishes; the
/// handler forwards the message to the next stage with visible_at = now + 1.
class StageCompletionHandler {
 public:
  virtual ~StageCompletionHandler() = default;
  virtual void on_stage_complete(Component& at, Tick now, std::uint64_t tag) = 0;
};

/// One unit of routed work: `work` is in the receiving component's service
/// unit (cycles, bits, bytes, seconds). `tag` is opaque handler context.
/// `parallelism` (thesis §9.1.1 "Multithreading", future work): CPU stages
/// with parallelism > 1 fork their cycles across up to that many cores and
/// join on completion; other components ignore it.
struct StageJob {
  double work = 0.0;
  /// Runtime-only pointer; snapshots re-express it as a HandlerKey
  /// (launcher AgentId + instance serial) via archive_stage_job.
  StageCompletionHandler* handler = nullptr;  // NOLINT(gdisim-snapshot-ptr) archived as a HandlerKey
  std::uint64_t tag = 0;
  unsigned parallelism = 1;
};

/// Snapshot round trip for one StageJob: the handler pointer travels as its
/// stable HandlerKey and is re-resolved against the live instances the
/// software layer (re)bound into the registry.
inline void archive_stage_job(StateArchive& ar, HandlerRegistry& reg, StageJob& job) {
  ar.f64(job.work);
  AgentId owner = kInvalidAgent;
  std::uint64_t serial = 0;
  if (ar.writing() && job.handler != nullptr) {
    const HandlerKey key = reg.key_of(job.handler);
    owner = key.owner;
    serial = key.serial;
  }
  ar.u32(owner);
  ar.u64(serial);
  if (ar.reading()) {
    job.handler = owner == kInvalidAgent ? nullptr : reg.resolve(HandlerKey{owner, serial});
  }
  ar.u64(job.tag);
  std::uint32_t parallelism = job.parallelism;
  ar.u32(parallelism);
  job.parallelism = parallelism;
}

/// Shared discipline archiver for single-queue components whose JobCtx is a
/// pool-owned StageJob copy (NIC, switch, link). The job table is streamed
/// in queue-enumeration order, so the ctx code for each queued job is simply
/// its enumeration position — stable, dense, and address-free.
template <typename Queue>
void archive_stagejob_queue(StateArchive& ar, HandlerRegistry& reg, Queue& queue,
                            JobPool<StageJob>& pool) {
  if (ar.writing()) {
    std::vector<StageJob*> order;
    queue.for_each_ctx([&order](JobCtx ctx) { order.push_back(static_cast<StageJob*>(ctx)); });
    std::size_t n = order.size();
    ar.size_value(n);
    for (StageJob* job : order) archive_stage_job(ar, reg, *job);
    std::uint64_t next = 0;
    queue.archive_state(ar, [&next](JobCtx) { return next++; }, {});
  } else {
    std::size_t n = 0;
    ar.size_value(n);
    std::vector<JobCtx> loaded;
    loaded.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      StageJob job;
      archive_stage_job(ar, reg, job);
      loaded.push_back(pool.create(job));
    }
    queue.archive_state(ar, {}, [&loaded](std::uint64_t idx) { return loaded.at(idx); });
  }
}

class Component : public Agent {
 public:
  Component() { inbox_.bind_owner(this); }

  /// Submission; the job becomes serviceable at `visible_at`. (sender, seq)
  /// make the inbox drain order deterministic.
  void submit(Tick visible_at, AgentId sender, std::uint64_t seq, StageJob job) {
    inbox_.post(visible_at, sender, seq, job);
  }

  void on_interactions(Tick now) override {
    if (inbox_.empty()) return;
    inbox_.drain_visible_into(now, drain_scratch_);
    for (auto& d : drain_scratch_) accept(d.payload);
  }

  void on_tick(Tick now) final {
    GDISIM_TICK_PROF_SCOPE(tickprof::Bucket::kQueueing);
    // Any accounting during tick `now` targets the *other* parity bucket,
    // so this one holds exactly the work accounted at tick now - 1.
    double& bucket = instant_buckets_[static_cast<std::size_t>(now) & 1];
    const double instant = bucket;
    if (instant != 0.0) {
      bucket = 0.0;
      const double cap = capacity_per_second() * tick_seconds_;
      instant_fraction_ = cap > 0.0 ? instant / cap : 0.0;
    } else {
      instant_fraction_ = 0.0;  // 0 / cap — skip the virtual capacity call
    }
    advance_tick(now, tick_seconds_);
    window_accum_ += utilization();
  }

  /// Set by the infrastructure builder before the run starts.
  void set_tick_seconds(double s) { tick_seconds_ = s; }
  double tick_seconds() const { return tick_seconds_; }

  /// Capacity fraction used during the last tick, in [0, 1]; includes
  /// sub-tick accounted work.
  double utilization() const {
    return std::min(1.0, raw_utilization() + instant_fraction_);
  }

  /// Mean utilization since the previous call — what the measurement
  /// collection signal samples (thesis: snapshots average many per-tick
  /// samples). `now` is the sample tick; the denominator is wall ticks, not
  /// ticks executed, so a component parked by the active-set scheduler
  /// (which would have accumulated exactly zero on every skipped tick)
  /// reports the same mean as under the dense sweep. Resets the window.
  double take_window_utilization(Tick now) {
    const Tick span = now - window_start_tick_;
    const double u = span > 0 ? window_accum_ / static_cast<double>(span) : utilization();
    window_accum_ = 0.0;
    window_start_tick_ = now;
    return u;
  }

  /// Records work served "instantly" (below the sub-tick threshold) at tick
  /// `now`, from any agent's phase during routing. The work is folded into
  /// utilization at tick now + 1 whether the accounting agent runs before or
  /// after this component within the tick — two buckets indexed by tick
  /// parity separate "accumulating" from "folding", which keeps utilization
  /// attribution independent of agent order and identical between scheduler
  /// modes.
  void account_instant(double work, Tick now) {
    GDISIM_AUDIT_NONNEG(work, "Component: negative instant work accounted");
    instant_buckets_[static_cast<std::size_t>(now + 1) & 1] += work;
    request_wake();
  }

  /// Active when it has queued/in-service jobs, pending deliveries, or
  /// pending instant work; otherwise parked until a delivery or instant
  /// accounting wakes it. Residual state (last tick's raw_utilization /
  /// instant_fraction_) does NOT keep the component awake: the decay tick
  /// that would zero them contributes exactly 0 to every window accumulator
  /// (empty queue, empty bucket), so all collected series are unchanged —
  /// only the stale instantaneous utilization() value lingers, and nothing
  /// in the simulator probes it between wakes.
  Tick next_wake_tick(Tick next_now) const override {
    if (queue_length() > 0 || !inbox_.empty() || instant_buckets_[0] != 0.0 ||
        instant_buckets_[1] != 0.0) {
      return next_now;
    }
    return kNeverTick;
  }

  /// Aggregate service capacity in work units per second (all servers).
  virtual double capacity_per_second() const = 0;

  /// Approximate service rate seen by a single job when the component is
  /// idle; used by the route builder's sub-tick decision.
  virtual double single_job_rate() const { return capacity_per_second(); }

  /// Jobs currently queued or in service.
  virtual std::size_t queue_length() const = 0;

  /// Snapshot round trip shared by every hardware component: agent base,
  /// undrained inbox, instant-work buckets and the utilization window, then
  /// the subclass discipline via archive_discipline().
  void archive_state(StateArchive& ar, HandlerRegistry& reg) override {
    Agent::archive_state(ar, reg);
    ar.section("component");
    inbox_.archive_state(ar, [&reg](StateArchive& a, StageJob& job) {
      archive_stage_job(a, reg, job);
    });
    ar.f64(instant_buckets_[0]);
    ar.f64(instant_buckets_[1]);
    ar.f64(instant_fraction_);
    ar.f64(window_accum_);
    ar.i64(window_start_tick_);
    archive_discipline(ar, reg);
  }

 protected:
  /// Subclass hook: serialize the discipline queues and in-flight job
  /// contexts. Default: stateless discipline.
  virtual void archive_discipline(StateArchive& /*ar*/, HandlerRegistry& /*reg*/) {}
  /// Moves an absorbed job into the service discipline.
  virtual void accept(StageJob job) = 0;

  /// Advances the discipline by `dt` simulated seconds ending at tick now+1.
  virtual void advance_tick(Tick now, double dt) = 0;

  /// Utilization of the discipline queues during the last tick.
  virtual double raw_utilization() const = 0;

 private:
  Inbox<StageJob> inbox_;
  /// Reused drain buffer; its capacity amortizes across interaction phases.
  std::vector<Delivery<StageJob>> drain_scratch_;  // ARCHIVE-TRANSIENT: per-tick scratch; empty between ticks
  double tick_seconds_ = 0.0;  // ARCHIVE-TRANSIENT: clock configuration fixed at construction
  /// Tick-parity double buffer: work accounted at tick t lands in bucket
  /// (t+1)&1 and is folded by on_tick(t+1), which reads bucket (t+1)&1.
  double instant_buckets_[2] = {0.0, 0.0};
  double instant_fraction_ = 0.0;
  double window_accum_ = 0.0;
  Tick window_start_tick_ = 0;
};

}  // namespace gdisim
