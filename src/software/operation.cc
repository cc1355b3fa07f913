#include "software/operation.h"

#include <stdexcept>

#include "core/audit.h"

namespace gdisim {

namespace {

TierKind role_tier(Role role) {
  switch (role) {
    case Role::AppServer: return TierKind::App;
    case Role::DbServer: return TierKind::Db;
    case Role::FileServer: return TierKind::Fs;
    case Role::IdxServer: return TierKind::Idx;
    default: throw std::logic_error("role_tier: not a server role");
  }
}

}  // namespace

DcId OperationContext::resolve_dc(const Endpoint& ep, DcId origin_dc, DcId owner_dc) const {
  switch (ep.dc) {
    case DcSelector::Local: return origin_dc;
    case DcSelector::Owner: return owner_dc == kInvalidDc ? master_dc_ : owner_dc;
    case DcSelector::Explicit: return ep.explicit_dc;
  }
  return origin_dc;
}

OperationContext::ResolvedServer OperationContext::resolve(const Endpoint& ep, DcId origin_dc,
                                                           DcId owner_dc,
                                                           std::uint64_t balance_key) const {
  ResolvedServer out;
  out.dc = resolve_dc(ep, origin_dc, owner_dc);
  if (ep.role == Role::Client) return out;

  const TierKind kind = role_tier(ep.role);
  Tier* tier = topology_->dc(out.dc).tier(kind);
  if (tier == nullptr) {
    // Slave data centers have no app/db/idx tiers: such traffic is served
    // by the master data center (thesis §6.3.1).
    out.dc = master_dc_;
    tier = topology_->dc(out.dc).tier(kind);
    if (tier == nullptr) {
      throw std::logic_error(std::string("OperationContext: no tier '") + tier_kind_name(kind) +
                             "' anywhere for role resolution");
    }
  }
  out.server = &tier->pick_server(balance_key);
  return out;
}

OperationInstance::OperationInstance(const CascadeSpec& spec, OperationContext& ctx,
                                     LaunchParams params, DoneFn done)
    : spec_(&spec), ctx_(&ctx), params_(params), done_(std::move(done)) {
  if (spec_->steps.empty()) throw std::invalid_argument("OperationInstance: empty cascade");
  name_hash_ = spec_->name_hash != 0 ? spec_->name_hash : stable_hash(spec_->name);
  step_rng_base_ = Rng(params_.rng_seed).split_hashed(name_hash_);
  rebuild_spec_caches();
}

void OperationInstance::rebuild_spec_caches() {
  branch_hash_.clear();
  branch_hash_off_.clear();
  std::uint32_t off = 0;
  for (std::size_t s = 0; s < spec_->steps.size(); ++s) {
    branch_hash_off_.push_back(off);
    const std::size_t nb = spec_->steps[s].branches.size();
    for (std::size_t b = 0; b < nb; ++b) {
      branch_hash_.push_back(stable_hash_decimal(s * 1000 + b));
    }
    off += static_cast<std::uint32_t>(nb);
  }
}

void OperationInstance::reset(const CascadeSpec& spec, const LaunchParams& params) {
  if (spec.steps.empty()) throw std::invalid_argument("OperationInstance: empty cascade");
  const bool same_spec = spec_ == &spec;
  spec_ = &spec;
  params_ = params;
  name_hash_ = spec.name_hash != 0 ? spec.name_hash : stable_hash(spec.name);
  step_rng_base_ = Rng(params_.rng_seed).split_hashed(name_hash_);
  if (!same_spec) rebuild_spec_caches();
  step_idx_ = 0;
  repeats_left_ = 0;
  start_tick_ = 0;
  branches_outstanding_ = 0;
  // branches_ keeps its (possibly oversized) storage: start_step()
  // re-initializes every field of the branches a step actually uses, and
  // archive_state only walks the current step's branch count.
}

void OperationInstance::start(Tick now) {
  GDISIM_AUDIT_JOB_SPAWNED(audit::Category::kOperation);
  start_tick_ = now;
  step_idx_ = 0;
  repeats_left_ = spec_->steps[0].repeat;
  start_step(now);
}

void OperationInstance::start_step(Tick now) {
  const Step& step = spec_->steps[step_idx_];
  // Reset in place instead of clear+resize: each branch's stage vector keeps
  // its capacity across steps/repeats, so route building stops allocating
  // after the first pass. Field values match a freshly-constructed
  // BranchState exactly (including local_seq, which feeds inbox ordering).
  if (branches_.size() < step.branches.size()) branches_.resize(step.branches.size());
  branches_outstanding_ = static_cast<unsigned>(step.branches.size());
  for (std::size_t b = 0; b < step.branches.size(); ++b) {
    BranchState& br = branches_[b];
    br.sequence = &step.branches[b];
    br.msg_idx = 0;
    br.stages.clear();
    br.stage_idx = 0;
    br.local_seq = 0;
    br.held_memory = nullptr;
    br.held_bytes = 0.0;
    // Bit-identical to Rng(seed).split(name).split(to_string(...)) — the
    // base stream and the per-(step, branch) purpose hashes are cached so the
    // hot relaunch path neither re-seeds xoshiro nor re-hashes digits.
    br.rng = step_rng_base_.split_hashed(branch_hash_[branch_hash_off_[step_idx_] + b]);
    start_message(b, now);
  }
}

void OperationInstance::start_message(std::size_t branch_idx, Tick now) {
  BranchState& br = branches_[branch_idx];
  // Loop past messages whose every stage was sub-tick ("instant").
  while (br.msg_idx < br.sequence->messages.size()) {
    const MessageSpec& m = br.sequence->messages[br.msg_idx];
    build_route(m, br, now);
    br.stage_idx = 0;
    if (!br.stages.empty()) {
      submit_stage(branch_idx, now);
      return;
    }
    finish_message(branch_idx, now);  // releases memory
    ++br.msg_idx;
  }
  finish_branch(now);
}

void OperationInstance::submit_stage(std::size_t branch_idx, Tick now) {
  BranchState& br = branches_[branch_idx];
  const Stage& stage = br.stages[br.stage_idx];
  // Per-branch sequence numbers keep inbox ordering deterministic whatever
  // order sibling branches post in.
  const std::uint64_t seq = (params_.instance_serial << 24) |
                            (static_cast<std::uint64_t>(branch_idx) << 16) | br.local_seq++;
  stage.target->submit(now + 1, params_.launcher_id, seq,
                       StageJob{stage.work, this, branch_idx, stage.parallelism});
}

void OperationInstance::on_stage_complete(Component& /*at*/, Tick now, std::uint64_t tag) {
  const std::size_t branch_idx = static_cast<std::size_t>(tag);
  BranchState& br = branches_[branch_idx];
  if (++br.stage_idx < br.stages.size()) {
    submit_stage(branch_idx, now);
    return;
  }
  finish_message(branch_idx, now);
  ++br.msg_idx;  // finish_message leaves msg_idx on the finished message
  start_message(branch_idx, now);
}

void OperationInstance::finish_message(std::size_t branch_idx, Tick /*now*/) {
  BranchState& br = branches_[branch_idx];
  if (br.held_memory != nullptr) {
    br.held_memory->release(br.held_bytes);
    br.held_memory = nullptr;
    br.held_bytes = 0.0;
  }
}

void OperationInstance::finish_branch(Tick now) {
  if (--branches_outstanding_ != 0) return;
  // Last branch of the step: advance the cascade.
  if (--repeats_left_ > 0) {
    start_step(now);
    return;
  }
  if (++step_idx_ < spec_->steps.size()) {
    repeats_left_ = spec_->steps[step_idx_].repeat;
    start_step(now);
    return;
  }
  GDISIM_AUDIT_JOB_COMPLETED(audit::Category::kOperation);
  if (done_) done_(*this, now + 1);
}

void OperationInstance::archive_state(StateArchive& ar, HandlerRegistry& reg) {
  ar.section("op_instance");
  ar.i64(start_tick_);
  ar.size_value(step_idx_);
  std::uint32_t repeats = repeats_left_;
  ar.u32(repeats);
  repeats_left_ = repeats;
  std::uint32_t outstanding = branches_outstanding_;
  ar.u32(outstanding);
  branches_outstanding_ = outstanding;

  // A finished instance parked in its launcher's completion inbox has
  // step_idx_ == steps.size() and no live branches; its kOperation spawn was
  // already balanced by a completion before the snapshot, so it is not
  // re-counted on read.
  const bool finished = step_idx_ >= spec_->steps.size();
  std::size_t nb = finished ? 0 : spec_->steps[step_idx_].branches.size();
  ar.size_value(nb);
  if (ar.reading()) {
    if (!finished) {
      ar.expect_equal(nb, spec_->steps[step_idx_].branches.size(), "cascade branch count");
      GDISIM_AUDIT_JOB_SPAWNED(audit::Category::kOperation);
    }
    // Exact-size the branch vector (it only ever grows during a run) so a
    // re-snapshot of the restored instance is byte-identical.
    branches_.resize(nb);
  }
  for (std::size_t b = 0; b < nb; ++b) {
    BranchState& br = branches_[b];
    if (ar.reading()) br.sequence = &spec_->steps[step_idx_].branches[b];
    ar.size_value(br.msg_idx);
    ar.size_value(br.stage_idx);
    ar.u32(br.local_seq);
    bool holds_memory = br.held_memory != nullptr;
    ar.boolean(holds_memory);
    if (holds_memory) {
      AgentId key = ar.writing() ? reg.memory_key(br.held_memory) : kInvalidAgent;
      ar.u32(key);
      if (ar.reading()) br.held_memory = reg.resolve_memory(key);
    } else if (ar.reading()) {
      br.held_memory = nullptr;
    }
    ar.f64(br.held_bytes);
    br.rng.archive_state(ar);
    std::size_t nstages = br.stages.size();
    ar.size_value(nstages);
    if (ar.reading()) br.stages.resize(nstages);
    for (std::size_t s = 0; s < nstages; ++s) {
      Stage& stage = br.stages[s];
      AgentId target = ar.writing() ? stage.target->id() : kInvalidAgent;
      ar.u32(target);
      if (ar.reading()) stage.target = static_cast<Component*>(reg.resolve_agent(target));
      ar.f64(stage.work);
      std::uint32_t parallelism = stage.parallelism;
      ar.u32(parallelism);
      stage.parallelism = parallelism;
    }
  }
}

void OperationInstance::build_route(const MessageSpec& m, BranchState& br, Tick now) {
  const double size_mb = m.size_mb_override.value_or(params_.size_mb);
  const ResourceVector cost = m.fixed + m.per_mb * size_mb;
  Topology& topo = ctx_->topology();

  const std::uint64_t from_key = br.rng.next_u64();
  const std::uint64_t to_key = br.rng.next_u64();
  const auto from = ctx_->resolve(m.from, params_.origin_dc, params_.owner_dc, from_key);
  const auto to = ctx_->resolve(m.to, params_.origin_dc, params_.owner_dc, to_key);

  const double tick = topo.dc(to.dc).dc_switch().tick_seconds();
  const double instant_below = ctx_->instant_fraction() * tick;

  std::vector<Stage>& stages = br.stages;
  stages.clear();
  auto add = [&stages, instant_below, now](Component* c, double work) {
    if (c == nullptr || work <= 0.0) return;
    const double rate = c->single_job_rate();
    if (rate > 0.0 && work / rate < instant_below) {
      c->account_instant(work, now);
      return;
    }
    stages.push_back(Stage{c, work});
  };

  const double bits = cost.net_bytes * 8.0;

  // Origin-side egress (server NICs are shared resources; client NICs are
  // folded into the client delay, thesis Eq. 3.3 note in DESIGN.md).
  if (from.server != nullptr) add(&from.server->nic(), bits);

  // WAN hops; a link stage always queues (never "instant") because its
  // propagation latency applies even to tiny payloads.
  for (LinkComponent* link : topo.route(from.dc, to.dc)) {
    stages.push_back(Stage{link, bits});
  }

  // Destination data center fabric.
  add(&topo.dc(to.dc).dc_switch(), bits);

  if (to.server != nullptr) {
    Tier* tier = topo.dc(to.dc).tier(role_tier(m.to.role));
    if (tier != nullptr) add(&tier->local_link(), bits);
    add(&to.server->nic(), bits);

    // Memory occupancy is held from the start of destination processing
    // until the message finishes (thesis Figure 3-5).
    if (cost.mem_bytes > 0.0) {
      to.server->memory().allocate(cost.mem_bytes);
      br.held_memory = &to.server->memory();
      br.held_bytes = cost.mem_bytes;
    }

    add(&to.server->cpu(), cost.cpu_cycles);
    if (m.cpu_parallelism > 1 && !stages.empty() &&
        stages.back().target == &to.server->cpu()) {
      stages.back().parallelism = m.cpu_parallelism;
    }

    if (cost.disk_bytes > 0.0) {
      const bool cache_hit =
          to.server->memory().storage_access_hits_cache(br.rng.next_double());
      if (!cache_hit) add(to.server->storage(), cost.disk_bytes);
    }
  } else {
    // Client destination: contention-free processing delay in seconds.
    const ClientMachineSpec& cm = topo.dc(to.dc).client_machine();
    const double delay =
        cost.cpu_cycles / cm.cpu_hz + cost.disk_bytes / cm.disk_Bps;
    add(&topo.dc(to.dc).client_station(), delay);
  }
}

}  // namespace gdisim
