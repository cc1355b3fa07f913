// Client holons: workload-driven operation launchers.
//
// ClientPopulation models the client population of one (application, data
// center) pair: the logged-in count follows the workload curve; each client
// cycles launch -> wait-for-completion -> think. SeriesLauncher reproduces
// the Ch. 5 validation protocol: a new client enters every `interval` and
// runs a fixed series of operations once.
//
// Both launchers receive completion callbacks from component phases; those
// callbacks only post to the launcher's own inbox, and all state is mutated
// in the launcher's own phases, keeping execution deterministic.
//
// Hot-state layout (DESIGN.md "Memory layout"): per-operation statistics
// live in dense vectors indexed by the catalog's interned op ids
// (OpStatsTable); the name-keyed std::map views the figures and the
// fingerprint consume are materialized lazily. Client slots are plain
// structs-of-scalars, and the launch scan is driven by a ready_at min-heap
// plus a parked-index list so clients that are thinking or above the
// workload curve cost nothing per tick.
#pragma once

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/agent.h"
#include "core/rng.h"
#include "software/catalog.h"
#include "software/in_flight.h"
#include "software/operation.h"
#include "software/workload.h"

namespace gdisim {

/// Accumulated response-time statistics per operation type, plus half-hour
/// binned means for the time-of-day figures (6-14..6-20).
struct OpStats {
  std::uint64_t count = 0;
  double total_s = 0.0;
  double min_s = 0.0;
  double max_s = 0.0;
  double sum_sq = 0.0;

  void record(double s) {
    if (count == 0) {
      min_s = max_s = s;
    } else {
      if (s < min_s) min_s = s;
      if (s > max_s) max_s = s;
    }
    ++count;
    total_s += s;
    sum_sq += s * s;
  }
  double mean() const { return count ? total_s / static_cast<double>(count) : 0.0; }

  void archive_state(StateArchive& ar) {
    ar.u64(count);
    ar.f64(total_s);
    ar.f64(min_s);
    ar.f64(max_s);
    ar.f64(sum_sq);
  }
};

/// Mean response time per (operation, half-hour-of-day bin).
class BinnedResponse {
 public:
  static constexpr int kBins = 48;
  void record(double hour_of_day, double seconds);
  /// (bin center hour, mean seconds) for bins with samples.
  std::vector<std::pair<double, double>> series() const;

  bool empty() const {
    for (auto c : count_)
      if (c != 0) return false;
    return true;
  }

  void archive_state(StateArchive& ar) {
    for (auto& s : sum_) ar.f64(s);
    for (auto& c : count_) ar.u64(c);
  }

 private:
  std::array<double, kBins> sum_{};
  std::array<std::uint64_t, kBins> count_{};
};

/// Per-operation statistics in struct-of-arrays form: dense vectors indexed
/// by the catalog's interned op id, so the per-completion hot path is two
/// vector indexations instead of two string-keyed map lookups. The legacy
/// name-keyed map views (consumed by figures, benches and the result
/// fingerprint) are materialized lazily and cached until the next record.
class OpStatsTable {
 public:
  /// `with_binned` additionally keeps half-hour binned response means.
  void init(const OperationCatalog& catalog, bool with_binned) {
    catalog_ = &catalog;
    with_binned_ = with_binned;
    stats_.assign(catalog.op_count(), OpStats{});
    if (with_binned) binned_.assign(catalog.op_count(), BinnedResponse{});
    dirty_ = true;
  }

  void record(std::uint32_t op_id, double seconds) {
    stats_[op_id].record(seconds);
    dirty_ = true;
  }
  void record_binned(std::uint32_t op_id, double hour_of_day, double seconds) {
    binned_[op_id].record(hour_of_day, seconds);
  }

  /// Name-keyed views: entries exist exactly for ops with count > 0, in name
  /// order — identical content and iteration order to the former live maps.
  /// The returned reference stays stable (and its iterators valid) until the
  /// next record()/archive_state().
  const std::map<std::string, OpStats>& stats_view() const {
    if (dirty_) rebuild_views();
    return stats_view_;
  }
  const std::map<std::string, BinnedResponse>& binned_view() const {
    if (dirty_) rebuild_views();
    return binned_view_;
  }

  /// Byte stream identical to archiving the name-keyed maps directly:
  /// count, then (name, payload) pairs in name order, stats then (when
  /// enabled) binned.
  void archive_state(StateArchive& ar);

 private:
  void rebuild_views() const;

  const OperationCatalog* catalog_ = nullptr;  // NOLINT(gdisim-snapshot-ptr) ARCHIVE-TRANSIENT: construction-time wiring
  bool with_binned_ = false;  // ARCHIVE-TRANSIENT: construction-time configuration
  std::vector<OpStats> stats_;
  std::vector<BinnedResponse> binned_;
  mutable std::map<std::string, OpStats> stats_view_;  // ARCHIVE-TRANSIENT: derived cache
  mutable std::map<std::string, BinnedResponse> binned_view_;  // ARCHIVE-TRANSIENT: derived cache
  mutable bool dirty_ = true;  // ARCHIVE-TRANSIENT: derived-cache validity flag
};

/// Samples the owning data center of the file an operation touches; used in
/// Ch. 7 (multiple masters). Returns kInvalidDc for "the master".
using OwnerSampler = std::function<DcId(DcId origin_dc, double uniform01)>;

/// Observes every operation launch (time, op, origin, owner, size); used by
/// the workload recorder (software/replay.h).
using LaunchRecorder = std::function<void(double t_seconds, const std::string& op,
                                          DcId origin, DcId owner, double size_mb)>;

struct ClientPopulationConfig {
  std::string name;  ///< e.g. "CAD@NA"
  DcId dc = 0;
  WorkloadCurve curve;  ///< logged-in clients vs GMT hour
  OperationMix mix;
  double think_time_mean_s = 40.0;
  double file_size_mb = 50.0;       ///< size of files moved by OPEN/SAVE/...
  double file_size_jitter = 0.0;    ///< +- uniform fraction of file_size_mb
  std::uint64_t seed = 1;
};

class ClientPopulation final : public Agent {
 public:
  /// Largest peak a population can hold: slot indices are uint32, and the
  /// index above this one is the kNoParked sentinel.
  static constexpr std::uint32_t kMaxPeak = 0xfffffffeu;

  ClientPopulation(ClientPopulationConfig config, const OperationCatalog& catalog,
                   OperationContext& ctx, TickClock clock);

  void on_tick(Tick now) override;
  void on_interactions(Tick now) override;

  /// Sleeps until the next launch-scan boundary; operation completions post
  /// to the inbox, which wakes the population immediately.
  Tick next_wake_tick(Tick next_now) const override {
    if (ops_.completions_pending()) return next_now;
    return std::max(next_scan_, next_now);
  }

  /// Client slots a population whose curve peaks at `peak` allocates (as a
  /// double, so an absurd peak cannot overflow the count).
  static double slots_for_peak(double peak) { return std::floor(peak) + 1.0; }

  /// Bytes one client slot costs: the slot, its share of the in-flight
  /// table (one operation per slot) and its think-heap entry.
  static std::size_t bytes_per_slot();

  void set_owner_sampler(OwnerSampler sampler) { owner_sampler_ = std::move(sampler); }
  void set_launch_recorder(LaunchRecorder recorder) { recorder_ = std::move(recorder); }

  /// Target logged-in population right now.
  std::size_t logged_in() const { return logged_in_; }
  /// Clients with an operation currently in flight.
  std::size_t active() const { return ops_.size(); }

  const std::map<std::string, OpStats>& stats() const { return op_stats_.stats_view(); }
  const std::map<std::string, BinnedResponse>& binned() const {
    return op_stats_.binned_view();
  }
  const ClientPopulationConfig& config() const { return config_; }
  std::uint64_t completed_operations() const { return ops_.launched() - ops_.size(); }
  std::size_t slot_count() const { return slots_.size(); }

  /// Snapshot round trip: client slots, the in-flight table (each
  /// operation's Extra is its slot) and response statistics.
  void archive_state(StateArchive& ar, HandlerRegistry& reg) override;

 private:
  struct Slot {
    Tick ready_at = 0;
    bool busy = false;
  };
  /// Min-heap entry of the think-time wake index: (ready_at, slot index).
  using ThinkEntry = std::pair<Tick, std::uint32_t>;

  void launch(std::uint32_t slot, Tick now);
  void rebuild_wake_index();
  void park(std::uint32_t idx);

  ClientPopulationConfig config_;  // ARCHIVE-TRANSIENT: construction-time configuration
  TickClock clock_;  // ARCHIVE-TRANSIENT: tick<->seconds conversion fixed at construction
  Rng rng_;
  OwnerSampler owner_sampler_;  // ARCHIVE-TRANSIENT: stateless callback; draws come from the archived rng_
  LaunchRecorder recorder_;  // ARCHIVE-TRANSIENT: observer callback wiring
  std::vector<Slot> slots_;
  Tick scan_every_ = 1;  // ARCHIVE-TRANSIENT: derived from config at construction
  Tick next_scan_ = 0;
  /// Mix entries pre-resolved to catalog specs so a launch never does a
  /// string-keyed lookup.
  std::vector<const CascadeSpec*> mix_specs_;  // NOLINT(gdisim-snapshot-ptr) ARCHIVE-TRANSIENT: construction-time wiring
  /// The operations in flight, one per busy slot; each carries its slot.
  InFlightOperations<std::uint32_t> ops_;
  // Launch-scan wake index (rebuilt from slots_ on restore): every non-busy
  // slot is exactly once in the think-heap (still thinking or not yet
  // examined) or the parked list (ready but above the logged-in waterline).
  std::vector<ThinkEntry> think_heap_;  // ARCHIVE-TRANSIENT: derived index over slots_
  std::vector<std::uint32_t> parked_;  // ARCHIVE-TRANSIENT: derived index over slots_
  std::uint32_t parked_min_ = kNoParked;  // ARCHIVE-TRANSIENT: derived index over slots_
  bool parked_sorted_ = true;  // ARCHIVE-TRANSIENT: derived index over slots_
  std::vector<std::uint32_t> launch_scratch_;  // ARCHIVE-TRANSIENT: per-scan scratch
  static constexpr std::uint32_t kNoParked = kMaxPeak + 1;
  std::size_t logged_in_ = 0;
  OpStatsTable op_stats_;
};

/// Memory the client slots of a scenario take, against what this process
/// may use.
struct SlotMemory {
  double need_bytes = 0.0;   ///< slots x ClientPopulation::bytes_per_slot()
  double limit_bytes = 0.0;  ///< physical memory, capped by RLIMIT_AS when finite
};
SlotMemory slot_memory(double slots);

/// "scale S: the client slots need N bytes, this process may use M bytes".
std::string describe_slot_memory(double scale, const SlotMemory& memory);

/// Throws std::runtime_error with describe_slot_memory() when `slots` client
/// slots need more memory than this process may use. Scenario builders call
/// it before they allocate, so a scale too big for memory fails with a
/// message instead of a bare std::bad_alloc.
void require_slot_memory(double slots, double scale);

/// One entry of a Ch. 5 series: operation name + file size it manipulates.
struct SeriesOp {
  std::string op;
  double size_mb = 0.0;
};

struct SeriesLauncherConfig {
  std::string name;  ///< e.g. "light"
  DcId dc = 0;
  std::vector<SeriesOp> series;
  double interval_s = 15.0;  ///< a new series client enters this often
  double stop_after_s = -1.0;  ///< stop launching after this time (<0 = never)
};

class SeriesLauncher final : public Agent {
 public:
  SeriesLauncher(SeriesLauncherConfig config, const OperationCatalog& catalog,
                 OperationContext& ctx, TickClock clock);

  void on_tick(Tick now) override;
  void on_interactions(Tick now) override;

  /// Sleeps until the next scheduled series entry; parked for good once the
  /// stop time passes (completions still arrive via inbox wakes).
  Tick next_wake_tick(Tick next_now) const override {
    if (ops_.completions_pending()) return next_now;
    if (config_.series.empty() || next_launch_ >= stop_tick_) return kNeverTick;
    return std::max(next_launch_, next_now);
  }

  /// Series currently in flight (the "concurrent clients" of Figure 5-6).
  std::size_t concurrent() const { return ops_.size(); }
  std::uint64_t series_completed() const { return series_completed_; }
  const std::map<std::string, OpStats>& stats() const { return op_stats_.stats_view(); }

  /// Snapshot round trip; each in-flight operation's Extra is its position
  /// in the series.
  void archive_state(StateArchive& ar, HandlerRegistry& reg) override;

 private:
  /// Launches the operation at `pos` of a series.
  void launch(std::size_t pos, Tick now);

  SeriesLauncherConfig config_;  // ARCHIVE-TRANSIENT: construction-time configuration
  // Construction-time wiring, identical in the restored process.
  const OperationCatalog* catalog_;  // NOLINT(gdisim-snapshot-ptr) ARCHIVE-TRANSIENT: construction-time wiring
  TickClock clock_;  // ARCHIVE-TRANSIENT: tick<->seconds conversion fixed at construction
  Tick next_launch_ = 0;
  Tick interval_ticks_ = 1;  // ARCHIVE-TRANSIENT: derived from config at construction
  Tick stop_tick_ = kNeverTick;  // ARCHIVE-TRANSIENT: derived from config at construction
  /// The operations in flight, one per running series client.
  InFlightOperations<std::size_t> ops_;
  std::uint64_t series_completed_ = 0;
  OpStatsTable op_stats_;
};

}  // namespace gdisim
