#include "background/indexbuild.h"

#include <algorithm>

#include "software/catalog.h"

namespace gdisim {

IndexBuildDaemon::IndexBuildDaemon(IndexBuildConfig config, const DataGrowthModel& growth,
                                   AccessPatternMatrix apm, OperationContext& ctx,
                                   TickClock clock)
    : BackgroundDaemon(config.name, config.home_dc, ctx, clock),
      config_(std::move(config)),
      growth_(growth),
      apm_(std::move(apm)) {
  delay_ticks_ = std::max<Tick>(1, this->clock().to_ticks(config_.delay_after_completion_s));
}

void IndexBuildDaemon::on_tick(Tick now) {
  if (runs_in_flight() > 0 || now < next_launch_) return;

  const double now_hour = clock().to_seconds(now) / 3600.0;
  const double from_hour = cover_from_hour_;

  double volume_mb = 0.0;
  for (DcId d : config_.producer_dcs) {
    const double frac = apm_.empty() ? 1.0 : owned_growth_fraction(apm_, d, home_dc());
    volume_mb += growth_.generated_mb(d, from_hour, now_hour) * frac;
  }
  cover_from_hour_ = now_hour;

  BackgroundRunRecord record;
  record.launch_hour = now_hour;
  record.cover_from_hour = from_hour;
  record.cover_to_hour = now_hour;
  record.total_mb = volume_mb;

  auto spec = std::make_unique<CascadeSpec>(
      make_indexbuild_cascade(home_dc(), volume_mb, config_.index_parallelism));
  launch_run(std::move(spec), std::move(record), now);
}

void IndexBuildDaemon::on_run_complete(const BackgroundRunRecord& /*record*/, Tick end_tick) {
  next_launch_ = saturating_add(end_tick, delay_ticks_);
}

}  // namespace gdisim
