// Redundant Array of Identical Disks (thesis §3.4.2, Figure 3-7).
//
// Pipeline: disk-array controller cache Q_dacc (FCFS), then — on a cache
// miss — an n-way fork-join where each branch is a per-disk controller
// cache Q_dcc followed (on a branch-level miss) by the disk drive Q_hdd.
// Cache hits at either level bypass the downstream queues. All work is in
// bytes; rates are bytes/second.
#pragma once

#include <vector>

#include "core/rng.h"
#include "hardware/component.h"
#include "queueing/fcfs_queue.h"
#include "queueing/job.h"

namespace gdisim {

struct RaidSpec {
  unsigned disks = 2;
  double dacc_rate_Bps = 4e9 / 8.0;   ///< disk array controller, bytes/s
  double dacc_hit_rate = 0.0;
  double dcc_rate_Bps = 3e9 / 8.0;    ///< per-disk controller, bytes/s
  double dcc_hit_rate = 0.0;
  double hdd_rate_Bps = 150e6;        ///< drive, bytes/s
};

class RaidComponent final : public Component {
 public:
  RaidComponent(const RaidSpec& spec, Rng rng);

  RaidComponent(const RaidComponent&) = delete;
  RaidComponent& operator=(const RaidComponent&) = delete;

  std::size_t queue_length() const override;
  const RaidSpec& spec() const { return spec_; }
  double controller_utilization() const { return dacc_.last_utilization(); }
  double capacity_per_second() const override {
    return static_cast<double>(spec_.disks) * spec_.hdd_rate_Bps;
  }

 protected:
  /// Mean utilization of the disk drives (the usual "disk busy" metric).
  double raw_utilization() const override { return last_disk_utilization_; }
  void accept(StageJob job) override;
  void advance_tick(Tick now, double dt) override;
  void archive_discipline(StateArchive& ar, HandlerRegistry& reg) override;

 private:
  struct RaidJob {
    StageJob stage;
    unsigned outstanding = 0;  ///< branches still serving (0 while in dacc)
  };
  struct BranchJob {
    /// Pool-owned parent; snapshots travel as an index into the streamed
    /// job table, never as an address.
    RaidJob* parent;  // NOLINT(gdisim-snapshot-ptr) travels as a job-table index
  };

  void complete(RaidJob* job, Tick now);
  void fork(RaidJob* job);
  void finish_branch(BranchJob* branch, Tick now);

  RaidSpec spec_;  // ARCHIVE-TRANSIENT: hardware spec; construction-time configuration
  Rng rng_;
  FcfsMultiServerQueue dacc_;
  std::vector<FcfsMultiServerQueue> dcc_;
  std::vector<FcfsMultiServerQueue> hdd_;
  /// Own every job/branch context; in-flight contexts (including branch jobs
  /// still queued in dcc_/hdd_) are reclaimed by the pools on destruction,
  /// so no pointer-keyed live set is needed.
  JobPool<RaidJob> jobs_;
  JobPool<BranchJob> branch_jobs_;
  std::vector<JobCtx> scratch_;  // ARCHIVE-TRANSIENT: per-advance completion scratch, empty between ticks
  double last_disk_utilization_ = 0.0;
};

}  // namespace gdisim
