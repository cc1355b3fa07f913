// Workload recording and replay.
//
// A WorkloadTrace captures every operation launch — time, operation, origin
// data center, resolved owner and file size. Replaying the identical trace
// against a *different* infrastructure is the purest form of the thesis'
// "what if" methodology (Figure 1-1): same demand, changed hardware or
// topology, directly comparable outputs.
#pragma once

#include <algorithm>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/agent.h"
#include "software/catalog.h"
#include "software/client.h"
#include "software/operation.h"

namespace gdisim {

struct TraceEntry {
  double t_seconds = 0.0;
  std::string op;
  DcId origin = 0;
  DcId owner = kInvalidDc;
  double size_mb = 0.0;
  std::uint64_t serial = 0;  ///< recording order tie-break
};

class WorkloadTrace {
 public:
  /// Appends one launch, stamping its recording serial.
  void record(TraceEntry entry);

  /// Sorts entries by (time, origin, op, serial); call once after recording.
  void finalize();

  const std::vector<TraceEntry>& entries() const { return entries_; }
  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  /// CSV round trip: "t_seconds,op,origin,owner,size_mb".
  void save(std::ostream& os) const;
  static WorkloadTrace load(std::istream& is);

  /// Hook suitable for ClientPopulation::set_launch_recorder.
  LaunchRecorder recorder();

 private:
  std::vector<TraceEntry> entries_;
  std::uint64_t next_serial_ = 0;
};

/// Agent that replays a finalized trace: each entry's operation is launched
/// at its recorded instant with its recorded origin/owner/size.
class TraceLauncher final : public Agent {
 public:
  TraceLauncher(const WorkloadTrace& trace, const OperationCatalog& catalog,
                OperationContext& ctx, TickClock clock, std::uint64_t seed = 1);

  void on_tick(Tick now) override;
  void on_interactions(Tick now) override;

  /// Sleeps until the next trace entry is due; parked once the trace is
  /// exhausted (completions still arrive via inbox wakes).
  Tick next_wake_tick(Tick next_now) const override {
    if (!completions_.empty()) return next_now;
    const auto& entries = trace_->entries();
    if (cursor_ >= entries.size()) return kNeverTick;
    return std::max(next_now, clock_.to_ticks(entries[cursor_].t_seconds));
  }

  std::size_t launched() const { return cursor_; }
  std::size_t in_flight() const { return live_.size(); }
  std::uint64_t completed() const { return completed_; }
  const std::map<std::string, OpStats>& stats() const { return stats_; }

  /// Snapshot round trip; live operations are rebuilt from their trace
  /// cursor position (the instance serial IS the cursor index).
  void archive_state(StateArchive& ar, HandlerRegistry& reg) override;

 private:
  struct CompletionMsg {
    /// Resolved on restore via the instance serial, never serialized.
    OperationInstance* instance;  // NOLINT(gdisim-snapshot-ptr) travels as (launcher id, serial)
    Tick end_tick;
  };

  std::unique_ptr<OperationInstance> make_instance(const TraceEntry& e, LaunchParams params);

  // Construction-time wiring, identical in the restored process.
  const WorkloadTrace* trace_;       // NOLINT(gdisim-snapshot-ptr) construction-time wiring
  const OperationCatalog* catalog_;  // NOLINT(gdisim-snapshot-ptr) ARCHIVE-TRANSIENT: construction-time wiring
  OperationContext* ctx_;  // NOLINT(gdisim-snapshot-ptr) ARCHIVE-TRANSIENT: construction-time wiring
  TickClock clock_;  // ARCHIVE-TRANSIENT: tick<->seconds conversion fixed at construction
  std::uint64_t seed_;
  std::size_t cursor_ = 0;
  /// In-flight operations keyed by instance serial (stable id, never an
  /// address).
  std::unordered_map<std::uint64_t, std::unique_ptr<OperationInstance>> live_;
  Inbox<CompletionMsg> completions_;
  std::uint64_t completed_ = 0;
  std::map<std::string, OpStats> stats_;
};

}  // namespace gdisim
