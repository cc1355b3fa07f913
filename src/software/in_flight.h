// In-flight operation table: every running OperationInstance of one
// launcher agent (client population, series launcher, trace replay,
// background daemon) and the bookkeeping the launchers share.
//
// The table numbers the owner's launches with a serial, which also orders
// the completion deliveries, and derives each instance's RNG stream from
// it. It keeps finished instances for later launches, collects completions
// in the owner's inbox and hands them back in delivery order together with
// the Extra value the owner attached to the launch (a client slot, a series
// position, a daemon's run record). One codec archives all of it, so an
// owner keeps only its launch policy.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/agent.h"
#include "software/catalog.h"
#include "software/operation.h"

namespace gdisim {

template <typename Extra>
class InFlightOperations {
 public:
  /// `seed_base` salts every instance's RNG seed. `catalog` resolves the
  /// specs of restored operations by name; a table without one (a daemon's)
  /// takes each launch's spec by ownership and archives it in full.
  InFlightOperations(Agent& owner, OperationContext& ctx, std::uint64_t seed_base,
                     const OperationCatalog* catalog)
      : owner_(&owner),
        ctx_(&ctx),
        catalog_(catalog),
        seed_base_(seed_base),
        done_([this](OperationInstance& inst, Tick end_tick) {
          completions_.post(end_tick, inst.params().launcher_id, inst.params().instance_serial,
                            inst.params().launcher_tag);
        }) {
    completions_.bind_owner(&owner);
  }
  // The instances' done callback holds `this`.
  InFlightOperations(const InFlightOperations&) = delete;
  InFlightOperations& operator=(const InFlightOperations&) = delete;

  /// Bytes the table holds per operation in flight at its peak: the entry,
  /// its free-list slot and its completion delivery.
  static constexpr std::size_t bytes_per_operation() {
    return sizeof(Entry) + sizeof(std::uint32_t) + sizeof(Delivery<std::uint32_t>);
  }

  /// Sizes the table and its inbox for `n` operations in flight at once, so
  /// neither regrows mid-run.
  void reserve(std::size_t n) {
    entries_.reserve(n);
    free_.reserve(n);
    completions_.reserve_total(n);
  }

  /// Starts `spec` at `now`. The caller sets the origin, owner and size in
  /// `params`; the table sets the serial, seed, launcher id and tag.
  /// `extra` comes back with the completion.
  void launch(const CascadeSpec& spec, LaunchParams params, Extra extra, Tick now) {
    acquire(spec, params, std::move(extra)).instance->start(now);
  }

  /// As above for a spec built for this one launch (a table without
  /// catalog). The entry keeps the spec until its next launch has
  /// repointed the instance: a later spec allocated at a freed spec's
  /// address would otherwise pass for the spec the instance's caches were
  /// built from (OperationInstance::reset).
  void launch(std::unique_ptr<CascadeSpec> spec, LaunchParams params, Extra extra, Tick now) {
    Entry& e = acquire(*spec, params, std::move(extra));
    e.own_spec = std::move(spec);
    e.instance->start(now);
  }

  /// Hands each completion visible at `now` to fn(instance, extra, end_tick)
  /// in delivery order, then frees its entry. fn may launch, which can grow
  /// the table, so it must take the Extra by value.
  template <typename Fn>
  void drain(Tick now, Fn&& fn) {
    completions_.drain_visible_into(now, drain_scratch_);
    for (const Delivery<std::uint32_t>& d : drain_scratch_) {
      const std::uint32_t idx = d.payload;
      fn(std::as_const(*entries_[idx].instance), std::move(entries_[idx].extra), d.visible_at);
      entries_[idx].live = false;
      free_.push_back(idx);
      --live_;
    }
  }

  /// Operations launched so far (the next launch's serial).
  std::uint64_t launched() const { return next_serial_; }
  /// Operations in flight, including those whose completion awaits a drain.
  std::size_t size() const { return live_; }
  bool completions_pending() const { return !completions_.empty(); }

  /// Snapshot round trip: the launch serial, the live operations in serial
  /// order, then the pending completions as (serial, end tick). A live
  /// operation travels as its serial, origin, owner, size, spec (its
  /// catalog name, or the whole spec for a table without catalog), Extra
  /// (`archive_extra(ar, extra)`) and instance; it is bound in the handler
  /// registry under (owner id, serial) before the instance streams, ahead
  /// of every queue entry that points at it. Reading rebuilds only the live
  /// operations, so a restored table holds no spare instances.
  template <typename Fn>
  void archive_state(StateArchive& ar, HandlerRegistry& reg, Fn&& archive_extra) {
    ar.section("in_flight");
    ar.u64(next_serial_);
    std::size_t n = live_;
    ar.size_value(n);
    if (ar.writing()) {
      std::vector<std::uint32_t> order;
      order.reserve(n);
      for (std::uint32_t i = 0; i < entries_.size(); ++i) {
        if (entries_[i].live) order.push_back(i);
      }
      std::sort(order.begin(), order.end(),
                [this](std::uint32_t a, std::uint32_t b) { return serial_of(a) < serial_of(b); });
      for (const std::uint32_t idx : order) archive_entry(ar, reg, idx, archive_extra);
    } else {
      entries_.clear();
      free_.clear();
      live_ = 0;
      for (std::size_t i = 0; i < n; ++i) {
        entries_.emplace_back();
        archive_entry(ar, reg, static_cast<std::uint32_t>(i), archive_extra);
        ++live_;
      }
    }
    completions_.archive_state(ar, [this](StateArchive& a, std::uint32_t& idx) {
      std::uint64_t serial = a.writing() ? serial_of(idx) : 0;
      a.u64(serial);
      if (a.reading()) idx = index_of(serial);
    });
  }

 private:
  struct Entry {
    /// The per-launch spec of a table without catalog, null otherwise.
    /// Declared before the instance, which is destroyed first.
    std::unique_ptr<CascadeSpec> own_spec;
    /// Kept after the operation completes, for the entry's next launch.
    std::unique_ptr<OperationInstance> instance;
    Extra extra{};
    bool live = false;
  };

  /// Fills the table's half of `params` for launch `serial` in entry `idx`.
  void stamp(LaunchParams& params, std::uint64_t serial, std::uint32_t idx) const {
    params.instance_serial = serial;
    params.launcher_id = owner_->id();
    params.rng_seed = seed_base_ ^ (serial * 0x9e3779b97f4a7c15ULL);
    params.launcher_tag = idx;
  }

  /// A free entry (or a new one) armed for the next launch of `spec`.
  Entry& acquire(const CascadeSpec& spec, LaunchParams params, Extra extra) {
    std::uint32_t idx = 0;
    if (free_.empty()) {
      idx = static_cast<std::uint32_t>(entries_.size());
      entries_.emplace_back();
    } else {
      idx = free_.back();
      free_.pop_back();
    }
    stamp(params, next_serial_++, idx);
    Entry& e = entries_[idx];
    if (e.instance) {
      e.instance->reset(spec, params);
    } else {
      e.instance = std::make_unique<OperationInstance>(spec, *ctx_, params, done_);
    }
    e.extra = std::move(extra);
    e.live = true;
    ++live_;
    return e;
  }

  std::uint64_t serial_of(std::uint32_t idx) const {
    return entries_[idx].instance->params().instance_serial;
  }

  /// Entry of live operation `serial` in a freshly read table, whose
  /// entries are in serial order.
  std::uint32_t index_of(std::uint64_t serial) const {
    const auto it = std::lower_bound(
        entries_.begin(), entries_.end(), serial, [](const Entry& e, std::uint64_t s) {
          return e.instance->params().instance_serial < s;
        });
    if (it == entries_.end() || it->instance->params().instance_serial != serial) {
      throw std::runtime_error("snapshot: " + owner_->name() + ": completion of operation " +
                               std::to_string(serial) + ", which is not in flight");
    }
    return static_cast<std::uint32_t>(it - entries_.begin());
  }

  template <typename Fn>
  void archive_entry(StateArchive& ar, HandlerRegistry& reg, std::uint32_t idx,
                     Fn& archive_extra) {
    Entry& e = entries_[idx];
    LaunchParams params = ar.writing() ? e.instance->params() : LaunchParams{};
    ar.u64(params.instance_serial);
    ar.u32(params.origin_dc);
    ar.u32(params.owner_dc);
    ar.f64(params.size_mb);
    const CascadeSpec* spec = nullptr;
    if (catalog_ != nullptr) {
      std::string name = ar.writing() ? e.instance->op_name() : std::string();
      ar.str(name);
      if (ar.reading()) spec = &catalog_->get(name);
    } else {
      if (ar.reading()) e.own_spec = std::make_unique<CascadeSpec>();
      archive_cascade_spec(ar, *e.own_spec);
      spec = e.own_spec.get();
    }
    archive_extra(ar, e.extra);
    if (ar.reading()) {
      stamp(params, params.instance_serial, idx);
      e.instance = std::make_unique<OperationInstance>(*spec, *ctx_, params, done_);
      e.live = true;
    }
    reg.bind(owner_->id(), params.instance_serial, e.instance.get());
    e.instance->archive_state(ar, reg);
  }

  // Construction-time wiring, identical in the restored process.
  Agent* owner_;  // NOLINT(gdisim-snapshot-ptr) ARCHIVE-TRANSIENT: construction-time wiring
  OperationContext* ctx_;  // NOLINT(gdisim-snapshot-ptr) ARCHIVE-TRANSIENT: construction-time wiring
  const OperationCatalog* catalog_;  // NOLINT(gdisim-snapshot-ptr) ARCHIVE-TRANSIENT: construction-time wiring
  std::uint64_t seed_base_;  // ARCHIVE-TRANSIENT: construction-time configuration
  /// Shared by every instance: posts the entry index to the owner's inbox,
  /// ordered by the launch serial.
  OperationInstance::DoneFn done_;  // ARCHIVE-TRANSIENT: completion callback wiring
  /// Indexed by LaunchParams::launcher_tag. Snapshots key live entries by
  /// instance serial, never by index or address.
  std::vector<Entry> entries_;
  std::vector<std::uint32_t> free_;  // ARCHIVE-TRANSIENT: finished entries; a restored table has none
  Inbox<std::uint32_t> completions_;
  std::vector<Delivery<std::uint32_t>> drain_scratch_;  // ARCHIVE-TRANSIENT: per-drain scratch
  std::uint64_t next_serial_ = 0;
  std::size_t live_ = 0;
};

}  // namespace gdisim
