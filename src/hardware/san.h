// Storage Area Network (thesis §3.4.2, Figure 3-8).
//
// Pipeline: fiber-channel switch Q_fcsw, then the disk-array controller
// cache Q_dacc (hit -> done, bypassing everything downstream), then the
// fiber-channel arbitrated loop Q_fcal, then an n-way fork-join of
// per-disk (Q_dcc -> Q_hdd) branches. A SAN is shared by the tiers of a
// data center, so unlike a RAID it typically serves many servers at once.
#pragma once

#include <vector>

#include "core/rng.h"
#include "hardware/component.h"
#include "queueing/fcfs_queue.h"
#include "queueing/job.h"

namespace gdisim {

struct SanSpec {
  unsigned disks = 20;
  double fcsw_rate_Bps = 8e9 / 8.0;   ///< fiber channel switch, bytes/s
  double dacc_rate_Bps = 4e9 / 8.0;   ///< disk array controller cache
  double dacc_hit_rate = 0.0;
  double fcal_rate_Bps = 4e9 / 8.0;   ///< fiber channel arbitrated loop
  double dcc_rate_Bps = 3e9 / 8.0;
  double dcc_hit_rate = 0.0;
  double hdd_rate_Bps = 150e6;
};

class SanComponent final : public Component {
 public:
  SanComponent(const SanSpec& spec, Rng rng);

  SanComponent(const SanComponent&) = delete;
  SanComponent& operator=(const SanComponent&) = delete;

  std::size_t queue_length() const override;
  const SanSpec& spec() const { return spec_; }
  double capacity_per_second() const override {
    return static_cast<double>(spec_.disks) * spec_.hdd_rate_Bps;
  }

 protected:
  double raw_utilization() const override { return last_disk_utilization_; }
  void accept(StageJob job) override;
  void advance_tick(Tick now, double dt) override;
  void archive_discipline(StateArchive& ar, HandlerRegistry& reg) override;

 private:
  struct SanJob {
    StageJob stage;
    unsigned outstanding = 0;
  };
  struct BranchJob {
    /// Pool-owned parent; snapshots travel as an index into the streamed
    /// job table, never as an address.
    SanJob* parent;  // NOLINT(gdisim-snapshot-ptr) travels as a job-table index
  };

  void complete(SanJob* job, Tick now);
  void finish_branch(BranchJob* branch, Tick now);

  SanSpec spec_;  // ARCHIVE-TRANSIENT: hardware spec; construction-time configuration
  Rng rng_;
  FcfsMultiServerQueue fcsw_;
  FcfsMultiServerQueue dacc_;
  FcfsMultiServerQueue fcal_;
  std::vector<FcfsMultiServerQueue> dcc_;
  std::vector<FcfsMultiServerQueue> hdd_;
  /// Own every job/branch context; in-flight contexts are reclaimed by the
  /// pools on destruction, so no pointer-keyed live set is needed.
  JobPool<SanJob> jobs_;
  JobPool<BranchJob> branch_jobs_;
  std::vector<JobCtx> scratch_;  // ARCHIVE-TRANSIENT: per-advance completion scratch, empty between ticks
  double last_disk_utilization_ = 0.0;
};

}  // namespace gdisim
