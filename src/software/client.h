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
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/agent.h"
#include "core/rng.h"
#include "software/catalog.h"
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

/// How a client chooses its next operation (thesis §9.2.1 extends the iid
/// mix with realistic session behaviour).
enum class ClientBehavior {
  kIndependentMix,  ///< sample each operation iid from the mix
  kSessionScript,   ///< each client walks `session_script` in order, looping
};

enum class ThinkTimeModel {
  kExponential,  ///< memoryless think times (default)
  kFixed,        ///< deterministic think times (clockwork clients)
};

struct ClientPopulationConfig {
  std::string name;  ///< e.g. "CAD@NA"
  DcId dc = 0;
  WorkloadCurve curve;  ///< logged-in clients vs GMT hour
  OperationMix mix;
  double think_time_mean_s = 40.0;
  double file_size_mb = 50.0;       ///< size of files moved by OPEN/SAVE/...
  double file_size_jitter = 0.0;    ///< +- uniform fraction of file_size_mb
  std::uint64_t seed = 1;
  ClientBehavior behavior = ClientBehavior::kIndependentMix;
  /// Ordered workflow for kSessionScript (e.g. LOGIN, TEXT-SEARCH, OPEN,
  /// SAVE); each client starts at a deterministic offset so the population
  /// does not move in lockstep.
  std::vector<std::string> session_script;
  ThinkTimeModel think_model = ThinkTimeModel::kExponential;
};

class ClientPopulation final : public Agent {
 public:
  ClientPopulation(ClientPopulationConfig config, const OperationCatalog& catalog,
                   OperationContext& ctx, TickClock clock);

  void on_tick(Tick now) override;
  void on_interactions(Tick now) override;

  /// Sleeps until the next launch-scan boundary; operation completions post
  /// to the inbox, which wakes the population immediately.
  Tick next_wake_tick(Tick next_now) const override {
    if (!completions_.empty()) return next_now;
    return std::max(next_scan_, next_now);
  }

  void set_owner_sampler(OwnerSampler sampler) { owner_sampler_ = std::move(sampler); }
  void set_launch_recorder(LaunchRecorder recorder) { recorder_ = std::move(recorder); }

  /// Target logged-in population right now.
  std::size_t logged_in() const { return logged_in_; }
  /// Clients with an operation currently in flight.
  std::size_t active() const { return active_; }

  const std::map<std::string, OpStats>& stats() const { return op_stats_.stats_view(); }
  const std::map<std::string, BinnedResponse>& binned() const {
    return op_stats_.binned_view();
  }
  const ClientPopulationConfig& config() const { return config_; }
  std::uint64_t completed_operations() const { return completed_; }
  std::size_t slot_count() const { return slots_.size(); }

  /// Snapshot round trip: client slots, in-flight operations (rebuilt from
  /// the catalog and re-bound in the handler registry), pending completions
  /// (re-linked by instance serial), and response statistics.
  void archive_state(StateArchive& ar, HandlerRegistry& reg) override;

 private:
  struct Slot {
    Tick ready_at = 0;
    bool busy = false;
    std::uint32_t script_pos = 0;
  };
  struct CompletionMsg {
    /// Resolved on restore via the instance serial, never serialized.
    OperationInstance* instance;  // NOLINT(gdisim-snapshot-ptr) travels as (launcher id, serial)
    std::size_t slot;
    Tick end_tick;
  };
  /// Min-heap entry of the think-time wake index: (ready_at, slot index).
  using ThinkEntry = std::pair<Tick, std::uint32_t>;

  void launch(std::size_t slot, Tick now);
  std::unique_ptr<OperationInstance> acquire_instance(const CascadeSpec& spec,
                                                      const LaunchParams& params);
  void rebuild_wake_index();
  void park(std::uint32_t idx);

  ClientPopulationConfig config_;
  // Construction-time wiring, identical in the restored process.
  const OperationCatalog* catalog_;  // NOLINT(gdisim-snapshot-ptr) ARCHIVE-TRANSIENT: construction-time wiring
  OperationContext* ctx_;  // NOLINT(gdisim-snapshot-ptr) ARCHIVE-TRANSIENT: construction-time wiring
  TickClock clock_;  // ARCHIVE-TRANSIENT: tick<->seconds conversion fixed at construction
  Rng rng_;
  OwnerSampler owner_sampler_;  // ARCHIVE-TRANSIENT: stateless callback; draws come from the archived rng_
  LaunchRecorder recorder_;  // ARCHIVE-TRANSIENT: observer callback wiring
  std::vector<Slot> slots_;
  Tick scan_every_ = 1;  // ARCHIVE-TRANSIENT: derived from config at construction
  Tick next_scan_ = 0;
  std::uint64_t name_hash_ = 0;  // ARCHIVE-TRANSIENT: stable_hash(config.name), cached
  /// Mix entries / session script pre-resolved to catalog specs so a launch
  /// never does a string-keyed lookup.
  std::vector<const CascadeSpec*> mix_specs_;  // NOLINT(gdisim-snapshot-ptr) ARCHIVE-TRANSIENT: construction-time wiring
  std::vector<const CascadeSpec*> script_specs_;  // NOLINT(gdisim-snapshot-ptr) ARCHIVE-TRANSIENT: construction-time wiring
  OperationInstance::DoneFn done_;  // ARCHIVE-TRANSIENT: completion callback wiring, shared by all instances
  /// In-flight operation per slot (at most one: a busy client is exactly a
  /// client with an operation in flight). Snapshots key entries by the
  /// instance serial — a stable id, never an address.
  std::vector<std::unique_ptr<OperationInstance>> live_by_slot_;
  /// Finished instances recycled into later launches; keeps each instance's
  /// branch/stage vectors warm and removes the per-launch allocation.
  std::vector<std::unique_ptr<OperationInstance>> instance_pool_;  // ARCHIVE-TRANSIENT: allocation recycling pool, logically empty
  // Launch-scan wake index (rebuilt from slots_ on restore): every non-busy
  // slot is exactly once in the think-heap (still thinking or not yet
  // examined) or the parked list (ready but above the logged-in waterline).
  std::vector<ThinkEntry> think_heap_;  // ARCHIVE-TRANSIENT: derived index over slots_
  std::vector<std::uint32_t> parked_;  // ARCHIVE-TRANSIENT: derived index over slots_
  std::uint32_t parked_min_ = kNoParked;  // ARCHIVE-TRANSIENT: derived index over slots_
  bool parked_sorted_ = true;  // ARCHIVE-TRANSIENT: derived index over slots_
  std::vector<std::uint32_t> launch_scratch_;  // ARCHIVE-TRANSIENT: per-scan scratch
  std::vector<Delivery<CompletionMsg>> drain_scratch_;  // ARCHIVE-TRANSIENT: per-wake scratch
  static constexpr std::uint32_t kNoParked = 0xffffffffu;
  Inbox<CompletionMsg> completions_;
  std::uint64_t next_serial_ = 0;
  std::size_t logged_in_ = 0;
  std::size_t active_ = 0;
  std::uint64_t completed_ = 0;
  OpStatsTable op_stats_;
};

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
  std::uint64_t seed = 1;
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
    if (!completions_.empty()) return next_now;
    if (config_.series.empty() || next_launch_ >= stop_tick_) return kNeverTick;
    return std::max(next_launch_, next_now);
  }

  /// Series currently in flight (the "concurrent clients" of Figure 5-6).
  std::size_t concurrent() const { return live_.size(); }
  std::uint64_t series_completed() const { return series_completed_; }
  const std::map<std::string, OpStats>& stats() const { return op_stats_.stats_view(); }

  /// Snapshot round trip; live series are rebuilt from (serial, next_op).
  void archive_state(StateArchive& ar, HandlerRegistry& reg) override;

 private:
  struct Run {
    std::size_t next_op = 0;
  };
  struct LiveOp {
    std::unique_ptr<OperationInstance> instance;
    Run run;
  };
  struct CompletionMsg {
    /// Resolved on restore via the instance serial, never serialized.
    OperationInstance* instance;  // NOLINT(gdisim-snapshot-ptr) travels as (launcher id, serial)
    Tick end_tick;
  };

  void launch_op(OperationInstance* prev, Run run, Tick now);
  std::unique_ptr<OperationInstance> make_instance(const SeriesOp& so, LaunchParams params);

  SeriesLauncherConfig config_;
  // Construction-time wiring, identical in the restored process.
  const OperationCatalog* catalog_;  // NOLINT(gdisim-snapshot-ptr) ARCHIVE-TRANSIENT: construction-time wiring
  OperationContext* ctx_;  // NOLINT(gdisim-snapshot-ptr) ARCHIVE-TRANSIENT: construction-time wiring
  TickClock clock_;  // ARCHIVE-TRANSIENT: tick<->seconds conversion fixed at construction
  Rng rng_;
  Tick next_launch_ = 0;
  Tick interval_ticks_ = 1;  // ARCHIVE-TRANSIENT: derived from config at construction
  Tick stop_tick_ = kNeverTick;  // ARCHIVE-TRANSIENT: derived from config at construction
  std::uint64_t name_hash_ = 0;  // ARCHIVE-TRANSIENT: stable_hash(config.name), cached
  /// In-flight series keyed by instance serial (stable id, never an address).
  std::unordered_map<std::uint64_t, LiveOp> live_;
  Inbox<CompletionMsg> completions_;
  std::vector<Delivery<CompletionMsg>> drain_scratch_;  // ARCHIVE-TRANSIENT: per-wake scratch
  std::uint64_t next_serial_ = 0;
  std::uint64_t series_completed_ = 0;
  OpStatsTable op_stats_;
};

}  // namespace gdisim
