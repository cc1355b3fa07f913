// Figure 7-6: SYNCHREP and INDEXBUILD response times in D_NA under the
// multiple-master configuration — roughly halved vs Figure 6-14
// (R_SR^max 31 -> ~19 min, R_IB^max 63 -> ~37 min in the thesis).
#include "background/file_tracker.h"
#include "bench_util.h"

using namespace gdisim;

namespace {

struct BgSummary {
  double sr_max_min, sr_exposure_min, ib_max_min, ib_exposure_min;
  double file_mean_stale_min = 0.0, file_p95_stale_min = 0.0;
  std::uint64_t files = 0;
};

BgSummary run(bool multimaster, double scale) {
  GlobalOptions opt;
  opt.scale = scale;
  Scenario scenario =
      multimaster ? make_multimaster_scenario(opt) : make_consolidated_scenario(opt);

  // Per-file staleness tracking (thesis §9.2.3 extension).
  FileTracker tracker(scenario.growth, scenario.apm, {0, 1, 2, 3, 4, 5, 6},
                      scenario.master_dc, 99);
  for (auto& sr : scenario.synchreps) sr->set_file_tracker(&tracker);

  SimulatorConfig cfg;
  cfg.collect_every_s = 60.0;
  GdiSimulator sim(std::move(scenario), cfg);
  sim.run_for(10.0 * 3600.0);
  sim.run_for(8.0 * 3600.0);  // cover the peak and the post-peak backlog

  SynchRepDaemon* sr = sim.scenario().synchrep_at(0);
  IndexBuildDaemon* ib = sim.scenario().indexbuild_at(0);
  BgSummary out;
  out.sr_max_min = sr->ledger().max_duration_s() / 60.0;
  out.sr_exposure_min = sr->max_staleness_s() / 60.0;
  out.ib_max_min = ib->ledger().max_duration_s() / 60.0;
  out.ib_exposure_min = ib->max_unsearchable_s() / 60.0;

  const StalenessDistribution staleness = tracker.pooled();
  out.file_mean_stale_min = staleness.mean_s() / 60.0;
  out.file_p95_stale_min = staleness.percentile_s(0.95) / 60.0;
  out.files = staleness.count();

  if (multimaster) {
    std::cout << "\nD_NA SYNCHREP runs (multiple master), by launch hour:\n";
    TableReport t({"Hour", "duration (min)", "volume (MB)"});
    for (const auto& rec : sr->ledger().runs()) {
      t.add_row({TableReport::fmt(rec.launch_hour, 2), TableReport::fmt(rec.duration_s / 60.0),
                 TableReport::fmt(rec.total_mb, 0)});
    }
    t.print(std::cout);
  }
  return out;
}

}  // namespace

int main() {
  bench::header("Multiple-master background process response times",
                "Figure 7-6 (D_NA SR & IB, vs Figure 6-14)");
  const double scale = bench::fast_mode() ? 0.05 : 0.10;

  const BgSummary mm = run(true, scale);
  const BgSummary single = run(false, scale);

  TableReport t({"Metric", "single master", "multiple master", "paper single", "paper mm"});
  t.add_row({"SR longest run (min)", TableReport::fmt(single.sr_max_min),
             TableReport::fmt(mm.sr_max_min), "~16", "~4-8"});
  t.add_row({"R_SR^max (min)", TableReport::fmt(single.sr_exposure_min),
             TableReport::fmt(mm.sr_exposure_min), "31", "19"});
  t.add_row({"IB longest run (min)", TableReport::fmt(single.ib_max_min),
             TableReport::fmt(mm.ib_max_min), "~55", "~30"});
  t.add_row({"R_IB^max (min)", TableReport::fmt(single.ib_exposure_min),
             TableReport::fmt(mm.ib_exposure_min), "63", "37"});
  t.add_row({"per-file staleness mean (min)", TableReport::fmt(single.file_mean_stale_min),
             TableReport::fmt(mm.file_mean_stale_min), "-", "-"});
  t.add_row({"per-file staleness p95 (min)", TableReport::fmt(single.file_p95_stale_min),
             TableReport::fmt(mm.file_p95_stale_min), "-", "-"});
  t.add_row({"files tracked", std::to_string(single.files), std::to_string(mm.files), "-",
             "-"});
  t.print(std::cout);
  bench::footnote(
      "Shape: per-owner volumes shrink, so both background processes finish "
      "faster and the worst-case staleness/unsearchability windows drop to "
      "roughly 55-60% of the single-master values.");
  return 0;
}
