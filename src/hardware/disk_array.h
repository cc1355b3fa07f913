// Disk array (thesis §3.4.2, Figures 3-7/3-8): the pipeline RAID and SAN
// share. FCFS controller stages run in front of an n-way fork-join whose
// branches are a per-disk controller cache Q_dcc followed by the drive
// Q_hdd. A hit at the disk-array controller cache Q_dacc (one of the front
// stages) completes the job without touching anything downstream; a hit at
// a disk's controller cache skips that drive. A job's work is striped evenly
// across the disks and it completes when every disk's share is done. All
// work is in bytes; rates are bytes/second.
#pragma once

#include <initializer_list>
#include <vector>

#include "core/audit.h"
#include "core/rng.h"
#include "hardware/component.h"
#include "queueing/fcfs_queue.h"

namespace gdisim {

class DiskArrayComponent : public QueueStation {
 protected:
  /// `category` is the audit ledger; its name labels the snapshot section.
  /// `front_rates_Bps` are the single-server FCFS controller stages in
  /// pipeline order; the cache-hit draw follows stage `dacc_stage`, and the
  /// last stage forks across the disks. Capacity is the drives' aggregate
  /// rate.
  DiskArrayComponent(audit::Category category,
                     std::initializer_list<double> front_rates_Bps, std::size_t dacc_stage,
                     double dacc_hit_rate, unsigned disks, double dcc_rate_Bps,
                     double dcc_hit_rate, double hdd_rate_Bps, Rng rng);

  /// Mean utilization of the disk drives (the usual "disk busy" metric).
  double raw_utilization() const override { return last_disk_utilization_; }
  void accept(StageJob job) override;
  void advance_tick(Tick now, double dt) override;
  void archive_discipline(StateArchive& ar, HandlerRegistry& reg) override;

 private:
  FcfsMultiServerQueue& dcc(unsigned disk) { return queues_[front_stages_ + disk]; }
  FcfsMultiServerQueue& hdd(unsigned disk) { return queues_[front_stages_ + disks_ + disk]; }
  double share(const PendingJob& job) const {
    return job.stage.work / static_cast<double>(disks_);
  }
  void finish(JobCtx ctx, Tick now);

  audit::Category category_;  // ARCHIVE-TRANSIENT: audit ledger, fixed at construction
  std::size_t front_stages_;  // ARCHIVE-TRANSIENT: pipeline shape, fixed at construction
  std::size_t dacc_stage_;  // ARCHIVE-TRANSIENT: pipeline shape, fixed at construction
  double dacc_hit_rate_;  // ARCHIVE-TRANSIENT: cache configuration, fixed at construction
  unsigned disks_;  // ARCHIVE-TRANSIENT: pipeline shape, fixed at construction
  double dcc_hit_rate_;  // ARCHIVE-TRANSIENT: cache configuration, fixed at construction
  Rng rng_;
  /// The front stages, then dcc for each disk, then hdd for each disk — the
  /// fixed order the snapshot codec visits.
  std::vector<FcfsMultiServerQueue> queues_;
  double last_disk_utilization_ = 0.0;
};

}  // namespace gdisim
