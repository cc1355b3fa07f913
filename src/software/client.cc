#include "software/client.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <iomanip>
#include <sstream>
#include <stdexcept>
#include <string>

namespace gdisim {

void BinnedResponse::record(double hour_of_day, double seconds) {
  double h = std::fmod(hour_of_day, 24.0);
  if (h < 0) h += 24.0;
  int bin = static_cast<int>(h * 2.0);
  if (bin >= kBins) bin = kBins - 1;
  sum_[bin] += seconds;
  ++count_[bin];
}

std::vector<std::pair<double, double>> BinnedResponse::series() const {
  std::vector<std::pair<double, double>> out;
  for (int b = 0; b < kBins; ++b) {
    if (count_[b] == 0) continue;
    out.emplace_back((b + 0.5) / 2.0, sum_[b] / static_cast<double>(count_[b]));
  }
  return out;
}

void OpStatsTable::archive_state(StateArchive& ar) {
  // Byte layout identical to archiving std::map<std::string, T> directly
  // (count, then name-sorted (key, payload) pairs): an op is present exactly
  // when its stats count > 0, and — the recording invariant of both
  // launchers — binned data is recorded iff stats are, so the same presence
  // test drives both blocks.
  if (ar.writing()) {
    std::size_t n = 0;
    catalog_->for_each([&](const CascadeSpec& s) {
      if (stats_[s.op_id].count > 0) ++n;
    });
    ar.size_value(n);
    catalog_->for_each([&](const CascadeSpec& s) {
      if (stats_[s.op_id].count == 0) return;
      std::string key = s.name;
      ar.str(key);
      stats_[s.op_id].archive_state(ar);
    });
  } else {
    stats_.assign(catalog_->op_count(), OpStats{});
    std::size_t n = 0;
    ar.size_value(n);
    for (std::size_t i = 0; i < n; ++i) {
      std::string key;
      ar.str(key);
      stats_[catalog_->get(key).op_id].archive_state(ar);
    }
    dirty_ = true;
  }
  if (!with_binned_) return;
  if (ar.writing()) {
    std::size_t n = 0;
    catalog_->for_each([&](const CascadeSpec& s) {
      if (stats_[s.op_id].count > 0) ++n;
    });
    ar.size_value(n);
    catalog_->for_each([&](const CascadeSpec& s) {
      if (stats_[s.op_id].count == 0) return;
      std::string key = s.name;
      ar.str(key);
      binned_[s.op_id].archive_state(ar);
    });
  } else {
    binned_.assign(catalog_->op_count(), BinnedResponse{});
    std::size_t n = 0;
    ar.size_value(n);
    for (std::size_t i = 0; i < n; ++i) {
      std::string key;
      ar.str(key);
      binned_[catalog_->get(key).op_id].archive_state(ar);
    }
  }
}

void OpStatsTable::rebuild_views() const {
  stats_view_.clear();
  binned_view_.clear();
  catalog_->for_each([&](const CascadeSpec& s) {
    const OpStats& st = stats_[s.op_id];
    if (st.count == 0) return;
    stats_view_.emplace(s.name, st);
    if (with_binned_) binned_view_.emplace(s.name, binned_[s.op_id]);
  });
  dirty_ = false;
}

ClientPopulation::ClientPopulation(ClientPopulationConfig config, const OperationCatalog& catalog,
                                   OperationContext& ctx, TickClock clock)
    : config_(std::move(config)),
      clock_(clock),
      rng_(Rng(config_.seed).split(config_.name)),
      ops_(*this, ctx, stable_hash(config_.name), &catalog) {
  set_name("clients/" + config_.name);
  if (!(config_.curve.peak() <= kMaxPeak)) {
    throw std::invalid_argument("ClientPopulation " + config_.name + ": peak exceeds " +
                                std::to_string(kMaxPeak) + " clients");
  }
  slots_.resize(static_cast<std::size_t>(slots_for_peak(config_.curve.peak())));
  // Scanning every slot on every tick dominates large scenarios; a 0.25 s
  // launch granularity is negligible against multi-second think times.
  scan_every_ = std::max<Tick>(1, clock_.to_ticks(0.25));

  // Every slot has at most one operation in flight: size the table for all
  // of them once and it never regrows mid-run.
  ops_.reserve(slots_.size());
  op_stats_.init(catalog, /*with_binned=*/true);
  mix_specs_.reserve(config_.mix.entries().size());
  for (const auto& [op, weight] : config_.mix.entries()) {
    mix_specs_.push_back(&catalog.get(op));
  }
  rebuild_wake_index();
}

std::size_t ClientPopulation::bytes_per_slot() {
  return sizeof(Slot) + InFlightOperations<std::uint32_t>::bytes_per_operation() +
         sizeof(ThinkEntry);
}

SlotMemory slot_memory(double slots) {
  SlotMemory m;
  m.need_bytes = slots * static_cast<double>(ClientPopulation::bytes_per_slot());
  m.limit_bytes = static_cast<double>(sysconf(_SC_PHYS_PAGES)) *
                  static_cast<double>(sysconf(_SC_PAGESIZE));
  rlimit as{};
  if (getrlimit(RLIMIT_AS, &as) == 0 && as.rlim_cur != RLIM_INFINITY) {
    m.limit_bytes = std::min(m.limit_bytes, static_cast<double>(as.rlim_cur));
  }
  return m;
}

std::string describe_slot_memory(double scale, const SlotMemory& memory) {
  std::ostringstream out;
  out << "scale " << scale << ": the client slots need " << std::fixed << std::setprecision(0)
      << memory.need_bytes << " bytes, this process may use " << memory.limit_bytes << " bytes";
  return out.str();
}

void require_slot_memory(double slots, double scale) {
  const SlotMemory m = slot_memory(slots);
  if (m.need_bytes > m.limit_bytes) throw std::runtime_error(describe_slot_memory(scale, m));
}

void ClientPopulation::rebuild_wake_index() {
  think_heap_.clear();
  parked_.clear();
  parked_min_ = kNoParked;
  parked_sorted_ = true;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (!slots_[i].busy) {
      think_heap_.emplace_back(slots_[i].ready_at, static_cast<std::uint32_t>(i));
    }
  }
  std::make_heap(think_heap_.begin(), think_heap_.end(), std::greater<>());
}

void ClientPopulation::park(std::uint32_t idx) {
  if (!parked_.empty() && idx < parked_.back()) parked_sorted_ = false;
  parked_.push_back(idx);
  if (idx < parked_min_) parked_min_ = idx;
}

void ClientPopulation::on_tick(Tick now) {
  if (now < next_scan_) return;
  next_scan_ = now + scan_every_;
  const double hour = clock_.to_seconds(now) / 3600.0;
  logged_in_ = std::min(static_cast<std::size_t>(std::lround(config_.curve.at_hour(hour))),
                        slots_.size());

  // Collect this scan's launch set: think times that just expired, plus any
  // parked (long-ready) slots the rising workload curve now covers. Slots
  // above the waterline park with no further per-scan cost; busy or still-
  // thinking slots are never visited — idle clients cost zero.
  launch_scratch_.clear();
  while (!think_heap_.empty() && think_heap_.front().first <= now) {
    std::pop_heap(think_heap_.begin(), think_heap_.end(), std::greater<>());
    const std::uint32_t idx = think_heap_.back().second;
    think_heap_.pop_back();
    if (idx < logged_in_) {
      launch_scratch_.push_back(idx);
    } else {
      park(idx);
    }
  }
  if (parked_min_ < logged_in_) {
    if (!parked_sorted_) {
      std::sort(parked_.begin(), parked_.end());
      parked_sorted_ = true;
    }
    const auto split = std::lower_bound(parked_.begin(), parked_.end(),
                                        static_cast<std::uint32_t>(logged_in_));
    launch_scratch_.insert(launch_scratch_.end(), parked_.begin(), split);
    parked_.erase(parked_.begin(), split);
    parked_min_ = parked_.empty() ? kNoParked : parked_.front();
  }
  if (launch_scratch_.empty()) return;
  // Ascending slot order: the exact launch (and therefore RNG draw) order
  // the former linear 0..logged_in_ scan produced.
  std::sort(launch_scratch_.begin(), launch_scratch_.end());
  for (std::uint32_t idx : launch_scratch_) launch(idx, now);
}

void ClientPopulation::launch(std::uint32_t slot_idx, Tick now) {
  Slot& slot = slots_[slot_idx];
  const CascadeSpec* spec = mix_specs_[config_.mix.sample_index(rng_.next_double())];
  double size_mb = config_.file_size_mb;
  if (config_.file_size_jitter > 0.0) {
    size_mb *= 1.0 + config_.file_size_jitter * (2.0 * rng_.next_double() - 1.0);
  }
  DcId owner = kInvalidDc;
  if (owner_sampler_) owner = owner_sampler_(config_.dc, rng_.next_double());

  LaunchParams params;
  params.origin_dc = config_.dc;
  params.owner_dc = owner;
  params.size_mb = size_mb;
  slot.busy = true;
  if (recorder_) recorder_(clock_.to_seconds(now), spec->name, config_.dc, owner, size_mb);
  ops_.launch(*spec, params, slot_idx, now);
}

void ClientPopulation::on_interactions(Tick now) {
  ops_.drain(now, [this](const OperationInstance& inst, std::uint32_t slot_idx, Tick end_tick) {
    const double duration = inst.duration_seconds(clock_, end_tick);
    const double end_hour = clock_.to_seconds(end_tick) / 3600.0;
    op_stats_.record(inst.op_id(), duration);
    op_stats_.record_binned(inst.op_id(), end_hour, duration);

    Slot& slot = slots_[slot_idx];
    slot.busy = false;
    const double think = rng_.next_exponential(config_.think_time_mean_s);
    slot.ready_at = saturating_add(end_tick, clock_.to_ticks(think));
    think_heap_.emplace_back(slot.ready_at, slot_idx);
    std::push_heap(think_heap_.begin(), think_heap_.end(), std::greater<>());
  });
}

void ClientPopulation::archive_state(StateArchive& ar, HandlerRegistry& reg) {
  Agent::archive_state(ar, reg);
  ar.section("population");
  rng_.archive_state(ar);
  std::size_t nslots = slots_.size();
  ar.size_value(nslots);
  ar.expect_equal(nslots, slots_.size(), "client slot count");
  for (Slot& slot : slots_) {
    ar.i64(slot.ready_at);
    ar.boolean(slot.busy);
  }
  ar.i64(next_scan_);
  ar.size_value(logged_in_);
  ops_.archive_state(ar, reg, [this](StateArchive& a, std::uint32_t& slot_idx) {
    a.u32(slot_idx);
    if (a.reading() && slot_idx >= slots_.size()) {
      throw std::runtime_error("snapshot: " + name() + ": an operation names client slot " +
                               std::to_string(slot_idx) + " of a " +
                               std::to_string(slots_.size()) + "-slot population");
    }
  });
  op_stats_.archive_state(ar);
  if (ar.reading()) rebuild_wake_index();
}

SeriesLauncher::SeriesLauncher(SeriesLauncherConfig config, const OperationCatalog& catalog,
                               OperationContext& ctx, TickClock clock)
    : config_(std::move(config)),
      catalog_(&catalog),
      clock_(clock),
      ops_(*this, ctx, stable_hash(config_.name), &catalog) {
  set_name("series/" + config_.name);
  interval_ticks_ = std::max<Tick>(1, clock_.to_ticks(config_.interval_s));
  if (config_.stop_after_s >= 0.0) stop_tick_ = clock_.to_ticks(config_.stop_after_s);
  op_stats_.init(catalog, /*with_binned=*/false);
}

void SeriesLauncher::on_tick(Tick now) {
  if (now >= next_launch_ && now < stop_tick_ && !config_.series.empty()) {
    launch(0, now);
    next_launch_ = saturating_add(now, interval_ticks_);
  }
}

void SeriesLauncher::launch(std::size_t pos, Tick now) {
  const SeriesOp& so = config_.series[pos];
  LaunchParams params;
  params.origin_dc = config_.dc;
  params.size_mb = so.size_mb;
  ops_.launch(catalog_->get(so.op), params, pos, now);
}

void SeriesLauncher::archive_state(StateArchive& ar, HandlerRegistry& reg) {
  Agent::archive_state(ar, reg);
  ar.section("series_launcher");
  ar.i64(next_launch_);
  ar.u64(series_completed_);
  ops_.archive_state(ar, reg, [](StateArchive& a, std::size_t& pos) { a.size_value(pos); });
  op_stats_.archive_state(ar);
}

void SeriesLauncher::on_interactions(Tick now) {
  ops_.drain(now, [this, now](const OperationInstance& inst, std::size_t pos, Tick end_tick) {
    op_stats_.record(inst.op_id(), inst.duration_seconds(clock_, end_tick));
    if (++pos < config_.series.size()) {
      launch(pos, now);
    } else {
      ++series_completed_;
    }
  });
}

}  // namespace gdisim
