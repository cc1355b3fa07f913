// Ablation: SYNCHREP launch interval (thesis §6.3.3): "it is necessary to
// find a synchronization operation frequency that yields a compromise,
// keeping R^max_SR at acceptable levels whilst not exposing the
// infrastructure to the risk of saturation." This bench sweeps dT_SR and
// reports both sides of that compromise.
#include "bench_util.h"

using namespace gdisim;

namespace {

struct Point {
  double r_sr_max_min = 0.0;
  double longest_run_min = 0.0;
  double na_as1_util = 0.0;
  double na_app_util = 0.0;
};

Point run(double interval_s) {
  GlobalOptions opt;
  opt.scale = 0.05;
  opt.synchrep_interval_s = interval_s;
  Scenario scenario = make_consolidated_scenario(opt);
  SimulatorConfig cfg;
  cfg.collect_every_s = 60.0;
  GdiSimulator sim(std::move(scenario), cfg);
  sim.run_for(11.0 * 3600.0);
  sim.run_for(6.0 * 3600.0);

  Point p;
  SynchRepDaemon* sr = sim.scenario().synchrep_at(0);
  p.r_sr_max_min = sr->max_staleness_s() / 60.0;
  p.longest_run_min = sr->ledger().max_duration_s() / 60.0;
  const double t0 = 12.0 * 3600.0, t1 = 16.0 * 3600.0;
  p.na_as1_util = sim.collector().find("net/NA->AS1")->mean_between(t0, t1);
  p.na_app_util = sim.collector().find("cpu/NA/app")->mean_between(t0, t1);
  return p;
}

}  // namespace

int main() {
  bench::header("Ablation: SYNCHREP interval vs staleness and saturation",
                "Thesis §6.3.3 — the dT_SR compromise");

  TableReport t({"dT_SR (min)", "R_SR^max (min)", "longest run (min)", "NA->AS1 util",
                 "NA app util"});
  for (double minutes : {5.0, 15.0, 30.0, 60.0}) {
    const Point p = run(minutes * 60.0);
    t.add_row({TableReport::fmt(minutes, 0), TableReport::fmt(p.r_sr_max_min, 1),
               TableReport::fmt(p.longest_run_min, 1), TableReport::pct(p.na_as1_util),
               TableReport::pct(p.na_app_util)});
  }
  t.print(std::cout);
  bench::footnote(
      "Expected: shorter intervals reduce staleness exposure but overlap "
      "more concurrent runs on the WAN; very long intervals batch huge "
      "transfers whose duration grows, so R_SR^max stops improving. The "
      "thesis operates at 15 min.");
  return 0;
}
