#include "hardware/disk_array.h"

#include <stdexcept>
#include <string>

#include "core/archive.h"

namespace gdisim {

DiskArrayComponent::DiskArrayComponent(audit::Category category,
                                       std::initializer_list<double> front_rates_Bps,
                                       std::size_t dacc_stage, double dacc_hit_rate,
                                       unsigned disks, double dcc_rate_Bps, double dcc_hit_rate,
                                       double hdd_rate_Bps, Rng rng)
    : QueueStation(static_cast<double>(disks) * hdd_rate_Bps),
      category_(category),
      front_stages_(front_rates_Bps.size()),
      dacc_stage_(dacc_stage),
      dacc_hit_rate_(dacc_hit_rate),
      disks_(disks),
      dcc_hit_rate_(dcc_hit_rate),
      rng_(rng) {
  if (disks == 0) throw std::invalid_argument(std::string(audit::category_name(category)) + ": zero disks");
  queues_.reserve(front_stages_ + 2 * static_cast<std::size_t>(disks));
  for (double rate : front_rates_Bps) queues_.emplace_back(1, rate);
  for (unsigned i = 0; i < disks; ++i) queues_.emplace_back(1, dcc_rate_Bps);
  for (unsigned i = 0; i < disks; ++i) queues_.emplace_back(1, hdd_rate_Bps);
}

void DiskArrayComponent::accept(StageJob job) {
  GDISIM_AUDIT_NONNEG(job.work, "DiskArrayComponent: negative work accepted");
  GDISIM_AUDIT_JOB_SPAWNED(category_);
  queues_[0].enqueue(job.work, admit(job, 1));
}

void DiskArrayComponent::finish(JobCtx ctx, Tick now) {
  if (finish_share(ctx, now)) GDISIM_AUDIT_JOB_COMPLETED(category_);
}

void DiskArrayComponent::advance_tick(Tick now, double dt) {
  // Every stage drains into the shared scratch (cleared by the queue) so a
  // busy array advances without allocating; the downstream enqueues never
  // touch the scratch mid-iteration.
  // 1. Controller stages: a dacc hit completes the job, the last stage forks
  //    one share onto every disk.
  for (std::size_t s = 0; s < front_stages_; ++s) {
    queues_[s].advance(dt, completed_);
    for (JobCtx ctx : completed_) {
      auto* job = static_cast<PendingJob*>(ctx);
      if (s == dacc_stage_ && rng_.next_double() < dacc_hit_rate_) {
        finish(job, now);
      } else if (s + 1 < front_stages_) {
        queues_[s + 1].enqueue(job->stage.work, job);
      } else {
        job->outstanding = disks_;
        const double part = share(*job);
        for (unsigned i = 0; i < disks_; ++i) dcc(i).enqueue(part, job);
      }
    }
  }

  // 2. Per-disk controller caches: a hit skips the drive.
  for (unsigned i = 0; i < disks_; ++i) {
    dcc(i).advance(dt, completed_);
    for (JobCtx ctx : completed_) {
      if (rng_.next_double() < dcc_hit_rate_) {
        finish(ctx, now);
      } else {
        hdd(i).enqueue(share(*static_cast<PendingJob*>(ctx)), ctx);
      }
    }
  }

  // 3. Disk drives.
  double disk_util = 0.0;
  for (unsigned i = 0; i < disks_; ++i) {
    hdd(i).advance(dt, completed_);
    for (JobCtx ctx : completed_) finish(ctx, now);
    disk_util += hdd(i).last_utilization();
  }
  last_disk_utilization_ = disk_util / static_cast<double>(disks_);
}

void DiskArrayComponent::archive_discipline(StateArchive& ar, HandlerRegistry& reg) {
  ar.section(audit::category_name(category_));
  std::size_t disks = disks_;
  ar.size_value(disks);
  ar.expect_equal(disks, static_cast<std::size_t>(disks_), "disk count");
  rng_.archive_state(ar);
  archive_jobs(ar, reg, [this](auto&& visit) {
    for (auto& queue : queues_) visit(queue);
  });
  if (ar.reading()) {
    for (std::size_t i = 0; i < queue_length(); ++i) GDISIM_AUDIT_JOB_SPAWNED(category_);
  }
  ar.f64(last_disk_utilization_);
}

}  // namespace gdisim
