// INDEXBUILD daemon (thesis §6.3.2/§6.4.3, Figure 6-9).
//
// A new run launches dT_IB after the previous one *completed*, so only one
// INDEXBUILD is ever in flight; files keep accumulating while a run
// executes, producing the cumulative lag the thesis observes after the peak
// (Figure 6-14: R_IB^max occurs at ~17:00, past the workload peak).
#pragma once

#include <algorithm>
#include <vector>

#include "background/daemon.h"
#include "background/data_growth.h"
#include "background/ownership.h"

namespace gdisim {

struct IndexBuildConfig {
  std::string name = "bg/indexbuild";
  DcId home_dc = 0;
  double delay_after_completion_s = 5.0 * 60.0;
  std::vector<DcId> producer_dcs;  ///< data centers whose new files get indexed here
  /// §9.1.1 what-if: cores the index build may fork across (thesis: 1).
  unsigned index_parallelism = 1;
};

class IndexBuildDaemon final : public BackgroundDaemon {
 public:
  IndexBuildDaemon(IndexBuildConfig config, const DataGrowthModel& growth,
                   AccessPatternMatrix apm, OperationContext& ctx, TickClock clock);

  void on_tick(Tick now) override;
  void on_interactions(Tick now) override { drain_completions(now); }

  /// While a run is in flight the daemon only needs its completion (inbox
  /// wake); otherwise it sleeps until the launch-after-completion deadline.
  Tick next_wake_tick(Tick next_now) const override {
    if (completions_pending()) return next_now;
    if (runs_in_flight() > 0) return kNeverTick;
    return std::max(next_launch_, next_now);
  }

  const IndexBuildConfig& config() const { return config_; }

  /// R_IB^max: worst unsearchability exposure (seconds) observed so far.
  double max_unsearchable_s() const { return ledger().max_exposure_s(); }

  void archive_state(StateArchive& ar, HandlerRegistry& reg) override {
    archive_daemon_state(ar, reg);
    ar.section("indexbuild");
    ar.i64(next_launch_);
    ar.f64(cover_from_hour_);
  }

 protected:
  void on_run_complete(const BackgroundRunRecord& record, Tick end_tick) override;

 private:
  IndexBuildConfig config_;  // ARCHIVE-TRANSIENT: construction-time configuration
  // Stored by value: the daemon outlives scenario moves (Scenario is
  // movable) and the model is read-only here.
  DataGrowthModel growth_;  // ARCHIVE-TRANSIENT: construction-time configuration
  AccessPatternMatrix apm_;  // ARCHIVE-TRANSIENT: construction-time configuration
  Tick next_launch_ = 0;
  Tick delay_ticks_ = 1;  // ARCHIVE-TRANSIENT: derived from config at construction
  double cover_from_hour_ = 0.0;
};

}  // namespace gdisim
