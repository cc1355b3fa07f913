#include "background/synchrep.h"

#include <algorithm>

#include "software/catalog.h"

namespace gdisim {

SynchRepDaemon::SynchRepDaemon(SynchRepConfig config, const DataGrowthModel& growth,
                               AccessPatternMatrix apm, OperationContext& ctx, TickClock clock)
    : BackgroundDaemon(config.name, config.home_dc, ctx, clock, config.seed),
      config_(std::move(config)),
      growth_(growth),
      apm_(std::move(apm)) {
  interval_ticks_ = std::max<Tick>(1, this->clock().to_ticks(config_.interval_s));
}

void SynchRepDaemon::on_run_complete(const BackgroundRunRecord& record, Tick end_tick) {
  if (file_tracker_ == nullptr) return;
  const double done_h = clock().to_seconds(end_tick) / 3600.0;
  file_tracker_->on_sync_complete(home_dc(), record.cover_from_hour, record.cover_to_hour,
                                  done_h);
}

void SynchRepDaemon::on_tick(Tick now) {
  if (now < next_launch_) return;
  GDISIM_TICK_PROF_SCOPE(tickprof::Bucket::kBackground);
  next_launch_ = saturating_add(now, interval_ticks_);

  const double now_hour = clock().to_seconds(now) / 3600.0;
  const double from_hour = cover_from_hour_;
  cover_from_hour_ = now_hour;

  // New data owned by this daemon's home data center, per creator.
  std::vector<double> new_mb(config_.participant_dcs.size(), 0.0);
  double total_mb = 0.0;
  for (std::size_t i = 0; i < config_.participant_dcs.size(); ++i) {
    const DcId d = config_.participant_dcs[i];
    const double frac = apm_.empty() ? 1.0 : owned_growth_fraction(apm_, d, home_dc());
    new_mb[i] = growth_.generated_mb(d, from_hour, now_hour) * frac;
    total_mb += new_mb[i];
  }

  BackgroundRunRecord record;
  record.launch_hour = now_hour;
  record.cover_from_hour = from_hour;
  record.cover_to_hour = now_hour;
  record.total_mb = total_mb;

  // Pull: producers other than home with fresh owned data.
  for (std::size_t i = 0; i < config_.participant_dcs.size(); ++i) {
    const DcId d = config_.participant_dcs[i];
    if (d == home_dc() || new_mb[i] <= 0.0) continue;
    record.pull_mb.emplace_back(d, new_mb[i]);
  }
  // Push: every replica holder except home receives everything it did not
  // itself create.
  for (std::size_t i = 0; i < config_.participant_dcs.size(); ++i) {
    const DcId d = config_.participant_dcs[i];
    if (d == home_dc()) continue;
    const double vol = total_mb - new_mb[i];
    if (vol > 0.0) record.push_mb.emplace_back(d, vol);
  }

  auto spec = std::make_unique<CascadeSpec>(
      make_synchrep_cascade(home_dc(), record.pull_mb, record.push_mb));
  launch_run(std::move(spec), std::move(record), now);
}

}  // namespace gdisim
