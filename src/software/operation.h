// Operation instances: the run-time execution of a message cascade.
//
// An OperationInstance walks its cascade step by step. Every message expands
// into a *route* of hardware-component stages (origin NIC -> WAN links ->
// destination switch -> tier link -> NIC -> CPU -> storage, with memory-cache
// bypass and occupancy, per Eq. 3.2-3.5 of the thesis). Stage completions
// arrive during the phase of the serving component; branch state is only
// touched through the branch's current stage, and the last branch of a step
// to finish advances the cascade, so — thanks to per-branch sequence numbers
// — the execution is deterministic whatever order the components run in.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/archive.h"
#include "core/rng.h"
#include "core/types.h"
#include "hardware/topology.h"
#include "software/cascade.h"

namespace gdisim {

/// Resolves cascade endpoints to concrete hardware and builds stage routes.
class OperationContext {
 public:
  OperationContext(Topology& topology, DcId master_dc)
      : topology_(&topology), master_dc_(master_dc) {}

  Topology& topology() { return *topology_; }
  DcId master_dc() const { return master_dc_; }

  /// Sub-tick threshold: a stage whose idle service time is below this
  /// fraction of a tick is accounted-and-skipped instead of enqueued (see
  /// hardware/component.h). 0 disables the optimization entirely.
  double instant_fraction() const { return instant_fraction_; }
  void set_instant_fraction(double f) { instant_fraction_ = f; }

  /// Resolves an endpoint to a data center id. `Owner` falls back to the
  /// MDC when owner_dc is invalid.
  DcId resolve_dc(const Endpoint& ep, DcId origin_dc, DcId owner_dc) const;

  /// The tier serving `role` for traffic resolved to `dc`; if the tier does
  /// not exist there (slave data centers have no app/db/idx tiers) the
  /// request is routed to the MDC's tier.
  struct ResolvedServer {
    DcId dc = kInvalidDc;
    Server* server = nullptr;  ///< null when the endpoint is a client
  };
  ResolvedServer resolve(const Endpoint& ep, DcId origin_dc, DcId owner_dc,
                         std::uint64_t balance_key) const;

 private:
  Topology* topology_;
  DcId master_dc_;
  double instant_fraction_ = 0.25;
};

struct LaunchParams {
  DcId origin_dc = 0;
  DcId owner_dc = kInvalidDc;  ///< kInvalidDc => master
  double size_mb = 0.0;
  std::uint64_t instance_serial = 0;  ///< per-launcher, deterministic
  AgentId launcher_id = kInvalidAgent;
  std::uint64_t rng_seed = 0;  ///< instance RNG stream seed
  /// Opaque launcher bookkeeping (the in-flight table stores the entry
  /// index) so completion callbacks need not capture per-launch state.
  std::uint32_t launcher_tag = 0;
};

class OperationInstance final : public StageCompletionHandler {
 public:
  /// `done` is invoked from the finishing component's phase; it should only
  /// post to the owner's inbox, so all owner state changes in its own phases.
  using DoneFn = std::function<void(OperationInstance&, Tick end_tick)>;

  OperationInstance(const CascadeSpec& spec, OperationContext& ctx, LaunchParams params,
                    DoneFn done);

  /// Re-arms a finished (pooled) instance for a fresh launch, preserving the
  /// done callback, the context wiring and — the point of pooling — the
  /// branch/stage vector capacities warmed by earlier cascades.
  void reset(const CascadeSpec& spec, const LaunchParams& params);

  /// Launches the first step. Called from the launcher's tick phase at tick
  /// `now`; all submissions become visible at now + 1.
  void start(Tick now);

  void on_stage_complete(Component& at, Tick now, std::uint64_t tag) override;

  const std::string& op_name() const { return spec_->name; }
  /// Interned catalog id of the cascade (see OperationCatalog::op_count).
  std::uint32_t op_id() const { return spec_->op_id; }
  Tick start_tick() const { return start_tick_; }
  const LaunchParams& params() const { return params_; }

  /// Total simulated seconds, valid once done has fired.
  double duration_seconds(const TickClock& clock, Tick end_tick) const {
    return clock.to_seconds(end_tick - start_tick_);
  }

  /// Snapshot round trip of the cascade walk: step/repeat position and each
  /// live branch (message/stage cursor, pending route, held memory, RNG
  /// stream). Pointers travel as stable ids — stage targets as AgentIds,
  /// held memory as its server key, the sequence as the step/branch index.
  /// On read the instance must be freshly constructed and NOT started;
  /// start() is replaced by this call.
  void archive_state(StateArchive& ar, HandlerRegistry& reg);

 private:
  struct Stage {
    /// Snapshots travel as the component's AgentId, never as an address.
    Component* target = nullptr;  // NOLINT(gdisim-snapshot-ptr) travels as the component's AgentId
    double work = 0.0;
    unsigned parallelism = 1;
  };
  struct BranchState {
    /// Re-derived on restore from (step_idx_, branch index) into the spec.
    const Sequence* sequence = nullptr;  // NOLINT(gdisim-snapshot-ptr) re-derived from the spec on restore
    std::size_t msg_idx = 0;
    std::vector<Stage> stages;
    std::size_t stage_idx = 0;
    std::uint32_t local_seq = 0;
    /// Snapshots travel as the owning server's key, never as an address.
    MemoryComponent* held_memory = nullptr;  // NOLINT(gdisim-snapshot-ptr) travels as the owning CPU's AgentId
    double held_bytes = 0.0;
    Rng rng{0};
  };

  /// Refills branch_hash_/branch_hash_off_ for the current spec.
  void rebuild_spec_caches();

  void start_step(Tick now);
  void start_message(std::size_t branch_idx, Tick now);
  void submit_stage(std::size_t branch_idx, Tick now);
  void finish_message(std::size_t branch_idx, Tick now);
  void finish_branch(Tick now);

  /// Builds the component route for one message (Eq. 3.2-3.5) into
  /// `branch.stages`, reusing its capacity. `now` stamps the sub-tick
  /// ("instant") work accounted against bypassed components.
  void build_route(const MessageSpec& m, BranchState& branch, Tick now);

  // Construction-time wiring, identical in the restored process.
  const CascadeSpec* spec_;  // NOLINT(gdisim-snapshot-ptr) construction-time wiring
  OperationContext* ctx_;  // NOLINT(gdisim-snapshot-ptr) ARCHIVE-TRANSIENT: construction-time wiring
  LaunchParams params_;  // ARCHIVE-TRANSIENT: rebuilt by the relaunching owner before archive_state runs
  DoneFn done_;  // ARCHIVE-TRANSIENT: completion callback wired by the owner
  std::uint64_t name_hash_ = 0;  // ARCHIVE-TRANSIENT: cached stable_hash(spec name)
  /// Rng(seed).split_hashed(name_hash_), recomputed by ctor/reset so every
  /// start_step skips the xoshiro re-seed and the first split.
  Rng step_rng_base_{0};  // ARCHIVE-TRANSIENT: derived from params_/name_hash_, rebuilt by ctor/reset
  /// stable_hash_decimal(step * 1000 + branch) per (step, branch), flat with
  /// per-step offsets; rebuilt only when reset() swaps cascade specs.
  std::vector<std::uint64_t> branch_hash_;  // ARCHIVE-TRANSIENT: pure function of the spec
  std::vector<std::uint32_t> branch_hash_off_;  // ARCHIVE-TRANSIENT: pure function of the spec
  std::size_t step_idx_ = 0;
  unsigned repeats_left_ = 0;
  std::vector<BranchState> branches_;
  /// Branches of the current step still in flight; the last to finish
  /// advances the cascade.
  unsigned branches_outstanding_ = 0;
  Tick start_tick_ = 0;
};

}  // namespace gdisim
