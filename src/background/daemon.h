// Shared machinery for background-process daemons (thesis §6.4.3).
//
// A daemon is an agent that periodically launches a dynamically-built
// cascade. Two scheduling policies exist:
//   * fixed-interval (SYNCHREP): launch every dT regardless of overlap, so
//     several runs may be in flight at once;
//   * after-completion (INDEXBUILD): launch dT after the previous run
//     finished, so exactly one run is in flight and backlog accumulates
//     while it executes (the cumulative effect of Figure 6-14).
#pragma once

#include <memory>
#include <string>

#include "background/file_catalog.h"
#include "core/agent.h"
#include "software/client.h"
#include "software/in_flight.h"
#include "software/operation.h"

namespace gdisim {

class BackgroundDaemon : public Agent {
 public:
  BackgroundDaemon(std::string name, DcId home_dc, OperationContext& ctx, TickClock clock);

  const FreshnessLedger& ledger() const { return ledger_; }
  const BinnedResponse& response_by_hour() const { return response_by_hour_; }
  const OpStats& stats() const { return stats_; }
  DcId home_dc() const { return home_dc_; }
  std::size_t runs_in_flight() const { return runs_.size(); }

 protected:
  /// Launches `spec`, a cascade built for this run, at `now`.
  void launch_run(std::unique_ptr<CascadeSpec> spec, BackgroundRunRecord record, Tick now);

  /// Drains completed runs into the ledger and statistics, calling
  /// on_run_complete for each.
  void drain_completions(Tick now);

  /// Whether completion messages are waiting in the inbox — daemons that are
  /// otherwise quiescent must stay active to absorb them on time.
  bool completions_pending() const { return runs_.completions_pending(); }

  /// Hook invoked (from the interaction phase) when a run completes.
  virtual void on_run_complete(const BackgroundRunRecord& record, Tick end_tick) = 0;

  const TickClock& clock() const { return clock_; }

  /// Shared snapshot round trip for the daemon base: the in-flight runs
  /// (each run's cascade spec travels in full, its record as the table's
  /// Extra) and the ledger/statistics. Subclasses call this from their
  /// archive_state override before their own scheduling fields.
  void archive_daemon_state(StateArchive& ar, HandlerRegistry& reg);

 private:
  DcId home_dc_;  // ARCHIVE-TRANSIENT: construction-time configuration
  TickClock clock_;  // ARCHIVE-TRANSIENT: tick<->seconds conversion fixed at construction
  /// The runs in flight, each with the record the ledger receives.
  InFlightOperations<BackgroundRunRecord> runs_;
  FreshnessLedger ledger_;
  BinnedResponse response_by_hour_;
  OpStats stats_;
};

}  // namespace gdisim
