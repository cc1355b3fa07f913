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
// hop cost a full tick. Accounting does not wake the component: the work
// waits in a tick-stamped bucket until the component is next touched
// (DESIGN.md §5 "Quiescence contract").
#pragma once

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <stdexcept>
#include <string>
#include <unordered_map>
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

class Component : public Agent {
 public:
  /// `capacity_per_second` is the aggregate service capacity in work units
  /// per second (all servers); `single_job_rate` is the rate one job sees at
  /// an idle station, which the route builder's sub-tick test divides by.
  Component(double capacity_per_second, double single_job_rate)
      : capacity_per_second_(capacity_per_second), single_job_rate_(single_job_rate) {
    inbox_.bind_owner(this);
  }
  explicit Component(double capacity_per_second)
      : Component(capacity_per_second, capacity_per_second) {}

  /// Submission; the job becomes serviceable at `visible_at`. (sender, seq)
  /// make the inbox drain order deterministic.
  void submit(Tick visible_at, AgentId sender, std::uint64_t seq, StageJob job) {
    inbox_.post(visible_at, sender, seq, job);
  }

  void on_interactions(Tick now) override {
    if (inbox_.empty()) return;
    inbox_.drain_visible_into(now, drain_scratch_);
    in_flight_ += drain_scratch_.size();
    for (auto& d : drain_scratch_) accept(d.payload);
  }

  void on_tick(Tick now) final {
    GDISIM_TICK_PROF_SCOPE(tickprof::Bucket::kQueueing);
    fold_idle_samples(now);
    // What is left in this bucket is the work accounted at tick now - 1: any
    // accounting during tick `now` targets the other parity bucket.
    double& bucket = instant_buckets_[static_cast<std::size_t>(now) & 1];
    const double instant = bucket;
    if (instant != 0.0) {
      GDISIM_AUDIT_CHECK(instant_ticks_[static_cast<std::size_t>(now) & 1] == now,
                         "Component: instant work from a later tick folded early");
      bucket = 0.0;
      instant_fraction_ = instant_share(instant);
    } else {
      instant_fraction_ = 0.0;
    }
    advance_tick(now, tick_seconds_);
    window_accum_ += utilization();
  }

  /// Set by the infrastructure builder before the run starts.
  void set_tick_seconds(double s) { tick_seconds_ = s; }
  double tick_seconds() const { return tick_seconds_; }

  /// Capacity fraction used during the last tick this component ran, in
  /// [0, 1]; includes sub-tick accounted work. A parked component keeps the
  /// value of its last run, so only windows compare across schedulers.
  double utilization() const {
    return std::min(1.0, raw_utilization() + instant_fraction_);
  }

  /// Mean utilization since the previous call — what the measurement
  /// collection signal samples (thesis: snapshots average many per-tick
  /// samples). `now` is the sample tick; the denominator is wall ticks, not
  /// ticks executed, so a component parked by the active-set scheduler
  /// (which would have accumulated exactly zero on every skipped tick)
  /// reports the same mean as under the dense sweep. Folds the pending
  /// instant samples of ticks before `now` first, then resets the window.
  double take_window_utilization(Tick now) {
    fold_idle_samples(now);
    const Tick span = now - window_start_tick_;
    const double u = span > 0 ? window_accum_ / static_cast<double>(span) : utilization();
    window_accum_ = 0.0;
    window_start_tick_ = now;
    return u;
  }

  /// Records work served "instantly" (below the sub-tick threshold) at tick
  /// `now`, from any agent's phase during routing. The work is the
  /// component's instant sample for tick now + 1, whether the accounting
  /// agent runs before or after this component within the tick: two buckets
  /// indexed by tick parity separate "accumulating" from "folding", which
  /// keeps utilization attribution independent of agent order. The component
  /// is not woken. If it runs on_tick(now + 1), that call folds the sample
  /// with its busy utilization; otherwise it held no job at now + 1 and the
  /// sample folds as an idle one at the next touch.
  void account_instant(double work, Tick now) {
    GDISIM_AUDIT_NONNEG(work, "Component: negative instant work accounted");
    const Tick at = now + 1;
    const std::size_t b = static_cast<std::size_t>(at) & 1;
    if (instant_ticks_[b] != at) {
      // Whatever the bucket still holds belongs to a tick before `now`.
      fold_idle_samples(now);
      GDISIM_AUDIT_CHECK(instant_buckets_[b] == 0.0,
                         "Component: instant work accounted out of tick order");
      instant_ticks_[b] = at;
    }
    instant_buckets_[b] += work;
  }

  /// Whether accounted sub-tick work is still waiting to be folded.
  bool instant_pending() const {
    return instant_buckets_[0] != 0.0 || instant_buckets_[1] != 0.0;
  }

  /// Active while it holds in-flight jobs or undelivered mail; otherwise
  /// parked until a delivery wakes it. Pending instant work does not keep it
  /// awake (it folds at the next touch), and neither does the last tick's
  /// utilization() gauge: a skipped idle tick adds exactly 0 to the window.
  Tick next_wake_tick(Tick next_now) const override {
    return in_flight_ > 0 || !inbox_.empty() ? next_now : kNeverTick;
  }

  /// Aggregate service capacity in work units per second (all servers).
  double capacity_per_second() const { return capacity_per_second_; }

  /// Service rate seen by a single job when the component is idle; used by
  /// the route builder's sub-tick decision.
  double single_job_rate() const { return single_job_rate_; }

  /// Jobs accepted and not yet complete (a CPU parallel job counts once).
  std::size_t queue_length() const { return in_flight_; }

  /// Snapshot round trip shared by every hardware component: agent base,
  /// undrained inbox, instant-work buckets with their ticks and the
  /// utilization window, then the subclass discipline via
  /// archive_discipline(), which restores the in-flight count.
  void archive_state(StateArchive& ar, HandlerRegistry& reg) override {
    Agent::archive_state(ar, reg);
    ar.section("component");
    inbox_.archive_state(ar, [&reg](StateArchive& a, StageJob& job) {
      archive_stage_job(a, reg, job);
    });
    for (std::size_t b = 0; b < 2; ++b) {
      ar.f64(instant_buckets_[b]);
      ar.i64(instant_ticks_[b]);
    }
    ar.f64(instant_fraction_);
    ar.f64(window_accum_);
    ar.i64(window_start_tick_);
    archive_discipline(ar, reg);
  }

 protected:
  /// Subclass hook: serialize the discipline queues and in-flight job
  /// contexts; reading must end with restore_in_flight(). Default: stateless
  /// discipline.
  virtual void archive_discipline(StateArchive& /*ar*/, HandlerRegistry& /*reg*/) {}
  /// Moves an absorbed job into the service discipline.
  virtual void accept(StageJob job) = 0;

  /// Advances the discipline by `dt` simulated seconds ending at tick now+1.
  virtual void advance_tick(Tick now, double dt) = 0;

  /// Utilization of the discipline queues during the last tick.
  virtual double raw_utilization() const = 0;

  /// Reports a finished job to its handler. Every station completes its
  /// jobs here, so the in-flight count stays exact.
  void complete(const StageJob& job, Tick now) {
    GDISIM_AUDIT_CHECK(in_flight_ > 0, "Component: job completed with none in flight");
    --in_flight_;
    job.handler->on_stage_complete(*this, now, job.tag);
  }

  /// Sets the in-flight count from the jobs a snapshot restored.
  void restore_in_flight(std::size_t jobs) { in_flight_ = jobs; }

 private:
  /// Share of one tick's capacity that `work` takes.
  double instant_share(double work) const {
    const double cap = capacity_per_second_ * tick_seconds_;
    return cap > 0.0 ? work / cap : 0.0;
  }

  /// Folds, oldest first, every pending instant sample of a tick before
  /// `before`. Such a tick ran no on_tick, so the component held no job
  /// then and its discipline utilization was exactly 0: the sample is what
  /// utilization() would have read, and the dense sweep adds the same values
  /// in the same order.
  void fold_idle_samples(Tick before) {
    const std::size_t first = instant_ticks_[0] <= instant_ticks_[1] ? 0 : 1;
    for (const std::size_t b : {first, first ^ 1}) {
      if (instant_buckets_[b] == 0.0 || instant_ticks_[b] >= before) continue;
      window_accum_ += std::min(1.0, instant_share(instant_buckets_[b]));
      instant_buckets_[b] = 0.0;
    }
  }

  Inbox<StageJob> inbox_;
  /// Reused drain buffer; its capacity amortizes across interaction phases.
  std::vector<Delivery<StageJob>> drain_scratch_;  // ARCHIVE-TRANSIENT: per-tick scratch; empty between ticks
  double tick_seconds_ = 0.0;  // ARCHIVE-TRANSIENT: clock configuration fixed at construction
  double capacity_per_second_;  // ARCHIVE-TRANSIENT: service rate fixed at construction
  double single_job_rate_;  // ARCHIVE-TRANSIENT: service rate fixed at construction
  /// Jobs accepted and not yet complete.
  std::size_t in_flight_ = 0;  // ARCHIVE-TRANSIENT: recounted from the restored discipline queues
  /// Tick-parity double buffer: work accounted at tick t lands in bucket
  /// (t+1)&1 stamped t+1, and folds at the first touch from tick t+1 on.
  double instant_buckets_[2] = {0.0, 0.0};
  Tick instant_ticks_[2] = {0, 0};
  double instant_fraction_ = 0.0;
  double window_accum_ = 0.0;
  Tick window_start_tick_ = 0;
};

/// In-flight work at a queue-backed station: the routed stage plus the
/// number of its shares still queued. The discipline queues reference the
/// record once per share — a CPU parallel job once per core, a disk-array
/// fork once per disk — and the job completes when its last share finishes.
struct PendingJob {
  StageJob stage;
  unsigned outstanding = 1;
};

/// Base of every queue-backed station (NIC, switch, link, CPU, disk arrays):
/// owns the pool of PendingJob records its queues carry as contexts, retires
/// shares as the queues finish them, and archives the records with one
/// codec.
class QueueStation : public Component {
 protected:
  using Component::Component;

  /// Record for an accepted stage that the caller enqueues `shares` times.
  PendingJob* admit(const StageJob& job, unsigned shares) {
    return jobs_.create(PendingJob{job, shares});
  }

  /// Retires one finished share of the job `ctx` points at. The last share
  /// reports the stage complete and frees the record; returns whether it did.
  bool finish_share(JobCtx ctx, Tick now) {
    auto* job = static_cast<PendingJob*>(ctx);
    GDISIM_AUDIT_CHECK(job->outstanding > 0, "QueueStation: share finished with none outstanding");
    if (--job->outstanding > 0) return false;
    complete(job->stage, now);
    jobs_.destroy(job);
    GDISIM_AUDIT_CHECK(queue_length() == jobs_.live(),
                       "QueueStation: in-flight count differs from the live job records");
    return true;
  }

  /// Snapshot codec for the records the station's queues reference.
  /// `for_each_queue(visit)` calls visit(queue) on every discipline queue in
  /// a fixed order. Layout: the job table (count, then each record's stage
  /// and outstanding count) in first-encounter order over the queues, then
  /// each queue with every context written as its table index. Reading
  /// drops the records the queues held before, rebuilds the table ahead of
  /// the queue entries that point into it and recounts the in-flight jobs.
  template <typename ForEachQueue>
  void archive_jobs(StateArchive& ar, HandlerRegistry& reg, ForEachQueue&& for_each_queue) {
    ar.section("jobs");
    std::vector<PendingJob*> table;
    std::unordered_map<PendingJob*, std::uint64_t> index;  // NOLINT(gdisim-ptr-key-decl) archive-local lookup; never iterated
    if (ar.writing()) {
      for_each_queue([&](const auto& queue) {
        queue.for_each_ctx([&](JobCtx ctx) {
          auto* job = static_cast<PendingJob*>(ctx);
          if (index.emplace(job, table.size()).second) table.push_back(job);
        });
      });
    } else {
      jobs_.release_all();
    }
    std::size_t n = table.size();
    ar.size_value(n);
    for (std::size_t i = 0; i < n; ++i) {
      if (ar.reading()) table.push_back(jobs_.create(PendingJob{}));
      archive_stage_job(ar, reg, table[i]->stage);
      std::uint32_t outstanding = table[i]->outstanding;
      ar.u32(outstanding);
      table[i]->outstanding = outstanding;
    }
    const JobCtxEncoder enc = [&index](JobCtx ctx) {
      return index.at(static_cast<PendingJob*>(ctx));
    };
    std::vector<unsigned> entries(ar.reading() ? n : 0, 0);  // queue entries per loaded record
    const JobCtxDecoder dec = [&table, &entries](std::uint64_t i) -> JobCtx {
      if (i >= table.size()) {
        throw std::runtime_error("snapshot: queue entry refers to job " + std::to_string(i) +
                                 " of a " + std::to_string(table.size()) + "-job table");
      }
      ++entries[i];
      return table[i];
    };
    for_each_queue([&](auto& queue) { queue.archive_state(ar, enc, dec); });
    // Between ticks every outstanding share is exactly one queue entry.
    for (std::size_t i = 0; i < entries.size(); ++i) {
      if (entries[i] != table[i]->outstanding) {
        throw std::runtime_error("snapshot: job " + std::to_string(i) + " has " +
                                 std::to_string(table[i]->outstanding) +
                                 " outstanding shares but " + std::to_string(entries[i]) +
                                 " queue entries");
      }
    }
    if (ar.reading()) restore_in_flight(n);
  }

  /// Completion scratch every advance reuses, so a busy station does not
  /// allocate per tick.
  std::vector<JobCtx> completed_;  // ARCHIVE-TRANSIENT: per-tick scratch; drained before the tick ends

 private:
  JobPool<PendingJob> jobs_;
};

/// The station body NIC, switch and link share: one discipline queue, one
/// share per job.
template <typename Queue>
class SingleQueueStation : public QueueStation {
 protected:
  /// A station serving `rate` work units per second, with its queue
  /// constructed in place from `queue_args`.
  template <typename... QueueArgs>
  explicit SingleQueueStation(double rate, QueueArgs... queue_args)
      : QueueStation(rate), queue_(queue_args...) {}

  double raw_utilization() const override { return queue_.last_utilization(); }
  void accept(StageJob job) override { queue_.enqueue(job.work, admit(job, 1)); }

  void advance_tick(Tick now, double dt) override {
    queue_.advance(dt, completed_);
    for (JobCtx ctx : completed_) finish_share(ctx, now);
  }

  void archive_discipline(StateArchive& ar, HandlerRegistry& reg) override {
    archive_jobs(ar, reg, [this](auto&& visit) { visit(queue_); });
  }

  Queue queue_;
};

}  // namespace gdisim
