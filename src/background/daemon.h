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

#include <map>
#include <memory>
#include <string>
#include <unordered_map>

#include "background/file_catalog.h"
#include "core/agent.h"
#include "core/rng.h"
#include "software/client.h"
#include "software/operation.h"

namespace gdisim {

class BackgroundDaemon : public Agent {
 public:
  BackgroundDaemon(std::string name, DcId home_dc, OperationContext& ctx, TickClock clock,
                   std::uint64_t seed);

  const FreshnessLedger& ledger() const { return ledger_; }
  const BinnedResponse& response_by_hour() const { return response_by_hour_; }
  const OpStats& stats() const { return stats_; }
  DcId home_dc() const { return home_dc_; }
  std::size_t runs_in_flight() const { return live_.size(); }

 protected:
  /// Launches `spec` (ownership of the spec is retained until completion).
  void launch_run(std::unique_ptr<CascadeSpec> spec, BackgroundRunRecord record, Tick now);

  /// Drains completed runs; returns how many completed.
  std::size_t drain_completions(Tick now);

  /// Whether completion messages are waiting in the inbox — daemons that are
  /// otherwise quiescent must stay active to absorb them on time.
  bool completions_pending() const { return !completions_.empty(); }

 public:
 protected:

  /// Hook invoked (from the interaction phase) when a run completes.
  virtual void on_run_complete(const BackgroundRunRecord& record, Tick end_tick) = 0;

  OperationContext& ctx() { return *ctx_; }
  const TickClock& clock() const { return clock_; }
  Rng& rng() { return rng_; }

  /// Shared snapshot round trip for the daemon base: RNG, in-flight runs
  /// (each run's dynamically-built cascade spec travels in full), pending
  /// completions and the ledger/statistics. Subclasses call this from their
  /// archive_state override before their own scheduling fields.
  void archive_daemon_state(StateArchive& ar, HandlerRegistry& reg);

 private:
  struct LiveRun {
    std::unique_ptr<CascadeSpec> spec;
    std::unique_ptr<OperationInstance> instance;
    BackgroundRunRecord record;
  };
  struct CompletionMsg {
    /// Resolved on restore via the instance serial, never serialized.
    OperationInstance* instance;  // NOLINT(gdisim-snapshot-ptr) travels as (launcher id, serial)
    Tick end_tick;
  };

  std::unique_ptr<OperationInstance> make_instance(const CascadeSpec& spec, LaunchParams params);

  DcId home_dc_;
  OperationContext* ctx_;  // NOLINT(gdisim-snapshot-ptr) ARCHIVE-TRANSIENT: construction-time wiring
  TickClock clock_;  // ARCHIVE-TRANSIENT: tick<->seconds conversion fixed at construction
  Rng rng_;
  /// In-flight runs keyed by instance serial (stable id, never an address).
  std::unordered_map<std::uint64_t, LiveRun> live_;
  Inbox<CompletionMsg> completions_;
  std::vector<Delivery<CompletionMsg>> drain_scratch_;  // ARCHIVE-TRANSIENT: per-drain scratch, empty between ticks
  std::uint64_t next_serial_ = 0;
  FreshnessLedger ledger_;
  BinnedResponse response_by_hour_;
  OpStats stats_;
};

}  // namespace gdisim
