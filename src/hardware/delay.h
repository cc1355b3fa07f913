// Infinite-server delay station (M/G/inf).
//
// Used for client-side processing: thousands of client machines are not a
// shared bottleneck, so their per-message CPU/disk cost is modeled as a pure
// delay with no contention (work = seconds of delay).
//
// Hot-state layout (DESIGN.md "Memory layout"): the in-flight set is
// struct-of-arrays — the countdown streams over a dense array of `work`
// doubles, and the cross-tick minimum is cached so a tick where the
// smallest job survives (`fl(min - dt) > 1e-12`, which by monotonicity of
// IEEE subtraction means every job survives) reduces to one vectorizable
// subtract pass. Arithmetic per element is identical to the former
// array-of-structs loop, so results are bit-identical.
#pragma once

#include <algorithm>
#include <limits>
#include <vector>

#include "hardware/component.h"

namespace gdisim {

class DelayComponent final : public Component {
 public:
  /// No shared capacity; a job's work is seconds of delay, served at unit
  /// rate.
  DelayComponent() : Component(0.0, 1.0) {}

 protected:
  double raw_utilization() const override { return work_.empty() ? 0.0 : 1.0; }
  void accept(StageJob job) override {
    min_work_ = std::min(min_work_, job.work);
    work_.push_back(job.work);
    rest_.push_back(job);
  }

  void advance_tick(Tick now, double dt) override {
    const std::size_t n = work_.size();
    if (n == 0) return;

    // No-finish fast path: subtraction by a constant is monotone in IEEE
    // arithmetic, so if the smallest job survives the threshold every job
    // does and the survivors' minimum is exactly fl(min - dt). The loop
    // below would store the identical fl(work[i] - dt) for every job and
    // touch nothing else, so this branch is bit-for-bit equivalent.
    const double survivor_min = min_work_ - dt;
    if (survivor_min > 1e-12) {
      double* w = work_.data();
      for (std::size_t i = 0; i < n; ++i) w[i] -= dt;
      min_work_ = survivor_min;
      return;
    }

    // In-place compaction (stable, same survivor order as a copy pass) so a
    // busy station does not allocate every tick. Completion handlers never
    // touch the in-flight set directly — forwarded work goes through
    // inboxes. The same pass rebuilds the survivors' cached minimum.
    std::size_t keep = 0;
    double min_w = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < n; ++i) {
      const double w = work_[i] - dt;
      if (w <= 1e-12) {
        complete(rest_[i], now);
      } else {
        min_w = std::min(min_w, w);
        work_[keep] = w;
        if (keep != i) rest_[keep] = rest_[i];
        ++keep;
      }
    }
    work_.resize(keep);
    rest_.resize(keep);
    min_work_ = min_w;
    GDISIM_AUDIT_CHECK(queue_length() == keep,
                       "DelayComponent: in-flight count differs from the jobs in service");
  }

  void archive_discipline(StateArchive& ar, HandlerRegistry& reg) override {
    ar.section("delay");
    std::size_t n = work_.size();
    ar.size_value(n);
    if (ar.reading()) {
      work_.assign(n, 0.0);
      rest_.assign(n, StageJob{});
    }
    // Byte layout identical to the former vector<StageJob>: each job's
    // `work` field is synced from the dense work_ array before writing and
    // back into it after reading.
    for (std::size_t i = 0; i < n; ++i) {
      if (ar.writing()) rest_[i].work = work_[i];
      archive_stage_job(ar, reg, rest_[i]);
      if (ar.reading()) work_[i] = rest_[i].work;
    }
    if (ar.reading()) {
      min_work_ = std::numeric_limits<double>::infinity();
      for (double w : work_) min_work_ = std::min(min_work_, w);
      restore_in_flight(n);
    }
  }

 private:
  // In-flight set, struct-of-arrays: parallel (work countdown, job fields).
  // rest_[i].work is stale between archives; work_[i] is authoritative.
  std::vector<double> work_;
  std::vector<StageJob> rest_;
  /// Cached min of work_ (infinity when empty); maintained on accept and by
  /// the countdown pass. ARCHIVE-TRANSIENT: derived, rebuilt on restore.
  double min_work_ = std::numeric_limits<double>::infinity();
};

}  // namespace gdisim
