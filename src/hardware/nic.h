// Network Interface Card: M/M/1 FCFS over bits (thesis Figure 3-6, left).
#pragma once

#include <memory>

#include "hardware/component.h"
#include "queueing/fcfs_queue.h"

namespace gdisim {

struct NicSpec {
  double rate_bps = 1e9;  ///< bits per second
};

class NicComponent final : public Component {
 public:
  explicit NicComponent(const NicSpec& spec) : spec_(spec), queue_(1, spec.rate_bps) {}

  std::size_t queue_length() const override { return queue_.total_jobs(); }
  const NicSpec& spec() const { return spec_; }
  double capacity_per_second() const override { return spec_.rate_bps; }

 protected:
  double raw_utilization() const override { return queue_.last_utilization(); }
  void accept(StageJob job) override { queue_.enqueue(job.work, pool_.create(job)); }

  void advance_tick(Tick now, double dt) override {
    queue_.advance(dt, completed_);
    for (JobCtx ctx : completed_) {
      StageJob* job = static_cast<StageJob*>(ctx);
      job->handler->on_stage_complete(*this, now, job->tag);
      pool_.destroy(job);
    }
  }

  void archive_discipline(StateArchive& ar, HandlerRegistry& reg) override {
    ar.section("nic");
    archive_stagejob_queue(ar, reg, queue_, pool_);
  }

 private:
  NicSpec spec_;  // ARCHIVE-TRANSIENT: hardware spec; construction-time configuration
  FcfsMultiServerQueue queue_;
  JobPool<StageJob> pool_;
  std::vector<JobCtx> completed_;  // ARCHIVE-TRANSIENT: per-tick scratch; drained before the tick ends
};

}  // namespace gdisim
