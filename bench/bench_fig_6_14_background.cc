// Figure 6-14: response time of the SYNCHREP and INDEXBUILD background
// processes through the day, plus R_SR^max and R_IB^max.
#include "bench_util.h"

using namespace gdisim;

int main() {
  bench::header("Background process response times",
                "Figure 6-14 (SR & IB durations by hour; R_SR^max, R_IB^max)");
  GlobalOptions opt;
  opt.scale = bench::fast_mode() ? 0.05 : 0.10;

  Scenario scenario = make_consolidated_scenario(opt);
  SimulatorConfig cfg;
  cfg.collect_every_s = 60.0;
  GdiSimulator sim(std::move(scenario), cfg);

  const double hours = bench::fast_mode() ? 12.0 : 24.0;
  const double start_h = bench::fast_mode() ? 8.0 : 0.0;
  if (start_h > 0) sim.run_for(start_h * 3600.0);
  sim.run_for(hours * 3600.0);

  SynchRepDaemon* sr = sim.scenario().synchreps.at(0).get();
  IndexBuildDaemon* ib = sim.scenario().indexbuilds.at(0).get();

  std::cout << "\nSYNCHREP run durations by launch hour:\n";
  TableReport t({"Hour", "SR duration (min)", "SR volume (MB)"});
  for (const auto& run : sr->ledger().runs()) {
    t.add_row({TableReport::fmt(run.launch_hour, 2), TableReport::fmt(run.duration_s / 60.0),
               TableReport::fmt(run.total_mb, 0)});
  }
  t.print(std::cout);

  std::cout << "\nINDEXBUILD run durations by launch hour:\n";
  TableReport t2({"Hour", "IB duration (min)", "IB volume (MB)"});
  for (const auto& run : ib->ledger().runs()) {
    t2.add_row({TableReport::fmt(run.launch_hour, 2), TableReport::fmt(run.duration_s / 60.0),
                TableReport::fmt(run.total_mb, 0)});
  }
  t2.print(std::cout);

  std::cout << "\nR_SR^max = " << TableReport::fmt(sr->max_staleness_s() / 60.0)
            << " min (thesis ~31 min)\n"
            << "R_IB^max = " << TableReport::fmt(ib->max_unsearchable_s() / 60.0)
            << " min (thesis ~63 min)\n";
  bench::footnote(
      "Shape: SR durations peak with the 12:00-15:00 GMT data-generation "
      "peak; IB lags it (launch-after-completion accumulates backlog), so "
      "its worst response lands *after* the workload peak (~17:00 in the "
      "thesis).");
  return 0;
}
