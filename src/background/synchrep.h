// SYNCHREP daemon (thesis §6.3.2/§6.4.3, Figure 6-8).
//
// Every dT_SR the daemon integrates the data-growth curves since the last
// covered instant, restricted to the subset *owned* by its home data center
// (the full volume in the single-master configuration), and launches a
// SYNCHREP cascade: a parallel pull branch per producing data center and a
// parallel push branch per consuming data center. Overlapping runs are
// allowed, per the thesis.
#pragma once

#include <algorithm>
#include <vector>

#include "background/daemon.h"
#include "background/data_growth.h"
#include "background/file_tracker.h"
#include "background/ownership.h"

namespace gdisim {

struct SynchRepConfig {
  std::string name = "bg/synchrep";
  DcId home_dc = 0;
  double interval_s = 15.0 * 60.0;
  std::vector<DcId> participant_dcs;  ///< all data centers holding replicas
};

class SynchRepDaemon final : public BackgroundDaemon {
 public:
  SynchRepDaemon(SynchRepConfig config, const DataGrowthModel& growth,
                 AccessPatternMatrix apm, OperationContext& ctx, TickClock clock);

  void on_tick(Tick now) override;
  void on_interactions(Tick now) override { drain_completions(now); }

  /// Sleeps until the next fixed-interval launch; in-flight run completions
  /// arrive via inbox wakes.
  Tick next_wake_tick(Tick next_now) const override {
    if (completions_pending()) return next_now;
    return std::max(next_launch_, next_now);
  }

  const SynchRepConfig& config() const { return config_; }

  /// R_SR^max: worst staleness exposure (seconds) observed so far.
  double max_staleness_s() const { return ledger().max_exposure_s(); }

  /// Optional per-file staleness tracking (thesis §9.2.3): the tracker's
  /// partition for this daemon's home DC is updated on every completed run.
  void set_file_tracker(FileTracker* tracker) { file_tracker_ = tracker; }

  void archive_state(StateArchive& ar, HandlerRegistry& reg) override {
    archive_daemon_state(ar, reg);
    ar.section("synchrep");
    ar.i64(next_launch_);
    ar.f64(cover_from_hour_);
  }

 protected:
  void on_run_complete(const BackgroundRunRecord& record, Tick end_tick) override;

 private:
  SynchRepConfig config_;  // ARCHIVE-TRANSIENT: construction-time configuration
  // Stored by value: the daemon outlives scenario moves (Scenario is
  // movable) and the model is read-only here.
  DataGrowthModel growth_;  // ARCHIVE-TRANSIENT: construction-time configuration
  AccessPatternMatrix apm_;  // ARCHIVE-TRANSIENT: construction-time configuration
  Tick next_launch_ = 0;
  Tick interval_ticks_ = 1;  // ARCHIVE-TRANSIENT: derived from config at construction
  double cover_from_hour_ = 0.0;
  FileTracker* file_tracker_ = nullptr;  // NOLINT(gdisim-snapshot-ptr) ARCHIVE-TRANSIENT: wired at build time; the tracker archives itself
};

}  // namespace gdisim
