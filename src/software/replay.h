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
#include <string>
#include <variant>
#include <vector>

#include "core/agent.h"
#include "software/catalog.h"
#include "software/client.h"
#include "software/in_flight.h"
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

  /// CSV round trip: "t_seconds,op,origin,owner,size_mb", one launch a
  /// row after a header line. Every number is written so that it reads
  /// back bit-exact. Loading parses each field whole and throws
  /// std::invalid_argument naming the line and field ("line 3: origin: bad
  /// value '-1'") unless a row has exactly 5 fields, a finite time and size
  /// >= 0, an origin that is a data center id and an owner that is one or
  /// -1 (the master).
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
  /// Throws std::invalid_argument naming the entry when an entry's origin or
  /// owner is not a data center of the topology, or its operation is not in
  /// the catalog.
  TraceLauncher(const WorkloadTrace& trace, const OperationCatalog& catalog,
                OperationContext& ctx, TickClock clock, std::uint64_t seed = 1);

  void on_tick(Tick now) override;
  void on_interactions(Tick now) override;

  /// Sleeps until the next trace entry is due; parked once the trace is
  /// exhausted (completions still arrive via inbox wakes).
  Tick next_wake_tick(Tick next_now) const override {
    if (ops_.completions_pending()) return next_now;
    const auto& entries = trace_->entries();
    if (launched() >= entries.size()) return kNeverTick;
    return std::max(next_now, clock_.to_ticks(entries[launched()].t_seconds));
  }

  /// Entries launched so far; the next launch replays entries()[launched()].
  std::size_t launched() const { return static_cast<std::size_t>(ops_.launched()); }
  std::size_t in_flight() const { return ops_.size(); }
  std::uint64_t completed() const { return ops_.launched() - ops_.size(); }
  const std::map<std::string, OpStats>& stats() const { return op_stats_.stats_view(); }

  /// Snapshot round trip: the in-flight table (launch serials are trace
  /// positions) and the response statistics.
  void archive_state(StateArchive& ar, HandlerRegistry& reg) override;

 private:
  // Construction-time wiring, identical in the restored process.
  const WorkloadTrace* trace_;  // NOLINT(gdisim-snapshot-ptr) ARCHIVE-TRANSIENT: construction-time wiring
  const OperationCatalog* catalog_;  // NOLINT(gdisim-snapshot-ptr) ARCHIVE-TRANSIENT: construction-time wiring
  TickClock clock_;  // ARCHIVE-TRANSIENT: tick<->seconds conversion fixed at construction
  InFlightOperations<std::monostate> ops_;
  OpStatsTable op_stats_;
};

}  // namespace gdisim
