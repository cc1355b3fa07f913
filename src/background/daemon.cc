#include "background/daemon.h"

#include <utility>

#include "core/rng.h"

namespace gdisim {

BackgroundDaemon::BackgroundDaemon(std::string name, DcId home_dc, OperationContext& ctx,
                                   TickClock clock)
    : home_dc_(home_dc),
      clock_(clock),
      runs_(*this, ctx, stable_hash(name), /*catalog=*/nullptr) {
  set_name(std::move(name));
}

void BackgroundDaemon::launch_run(std::unique_ptr<CascadeSpec> spec, BackgroundRunRecord record,
                                  Tick now) {
  LaunchParams params;
  params.origin_dc = home_dc_;
  params.owner_dc = home_dc_;
  runs_.launch(std::move(spec), params, std::move(record), now);
}

void BackgroundDaemon::archive_daemon_state(StateArchive& ar, HandlerRegistry& reg) {
  Agent::archive_state(ar, reg);
  ar.section("daemon");
  runs_.archive_state(ar, reg,
                      [](StateArchive& a, BackgroundRunRecord& record) { record.archive_state(a); });
  ledger_.archive_state(ar);
  response_by_hour_.archive_state(ar);
  stats_.archive_state(ar);
}

void BackgroundDaemon::drain_completions(Tick now) {
  runs_.drain(now, [this](const OperationInstance& inst, BackgroundRunRecord record,
                          Tick end_tick) {
    record.duration_s = inst.duration_seconds(clock_, end_tick);
    stats_.record(record.duration_s);
    response_by_hour_.record(clock_.to_seconds(end_tick) / 3600.0, record.duration_s);
    ledger_.record(record);
    on_run_complete(record, end_tick);
  });
}

}  // namespace gdisim
