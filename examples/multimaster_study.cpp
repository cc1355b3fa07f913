// Background-process optimization study (thesis Ch. 7): compare the
// consolidated single-master infrastructure against the multiple-master
// infrastructure with data ownership, side by side.
//
//   ./build/examples/multimaster_study [hours=4] [scale=0.05]
#include <cstdlib>
#include <iostream>

#include "sim/gdisim.h"

using namespace gdisim;

namespace {

struct StudyResult {
  double sr_max_duration_min = 0.0;
  double sr_staleness_min = 0.0;
  double ib_max_duration_min = 0.0;
  double ib_unsearchable_min = 0.0;
  double na_peak_pull_push_mb = 0.0;
  double na_app_util = 0.0;
  double na_db_util = 0.0;
};

StudyResult run(bool multimaster, double hours, double scale) {
  GlobalOptions opt;
  opt.scale = scale;
  Scenario scenario =
      multimaster ? make_multimaster_scenario(opt) : make_consolidated_scenario(opt);
  GdiSimulator sim(std::move(scenario), SimulatorConfig{30.0});
  sim.run_for(11.0 * 3600.0);
  const double t0 = sim.now_seconds();
  sim.run_for(hours * 3600.0);
  const double t1 = sim.now_seconds();

  StudyResult r;
  SynchRepDaemon* sr = sim.scenario().synchrep_at(0);
  IndexBuildDaemon* ib = sim.scenario().indexbuild_at(0);
  r.sr_max_duration_min = sr->ledger().max_duration_s() / 60.0;
  r.sr_staleness_min = sr->max_staleness_s() / 60.0;
  r.ib_max_duration_min = ib->ledger().max_duration_s() / 60.0;
  r.ib_unsearchable_min = ib->max_unsearchable_s() / 60.0;
  for (const auto& run : sr->ledger().runs()) {
    double total = 0.0;
    for (const auto& [dc, mb] : run.pull_mb) total += mb;
    for (const auto& [dc, mb] : run.push_mb) total += mb;
    r.na_peak_pull_push_mb = std::max(r.na_peak_pull_push_mb, total);
  }
  r.na_app_util = sim.collector().find("cpu/NA/app")->mean_between(t0, t1);
  r.na_db_util = sim.collector().find("cpu/NA/db")->mean_between(t0, t1);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const double hours = argc > 1 ? std::atof(argv[1]) : 4.0;
  const double scale = argc > 2 ? std::atof(argv[2]) : 0.05;

  std::cout << "Comparing single-master vs multiple-master over the peak window\n"
            << "(scale=" << scale << ", " << hours << " h from 11:00 GMT)...\n\n";
  const StudyResult single = run(false, hours, scale);
  const StudyResult multi = run(true, hours, scale);

  TableReport t({"metric", "single master", "multiple master"});
  t.add_row({"SYNCHREP longest run (min)", TableReport::fmt(single.sr_max_duration_min),
             TableReport::fmt(multi.sr_max_duration_min)});
  t.add_row({"R_SR^max staleness (min)", TableReport::fmt(single.sr_staleness_min),
             TableReport::fmt(multi.sr_staleness_min)});
  t.add_row({"INDEXBUILD longest run (min)", TableReport::fmt(single.ib_max_duration_min),
             TableReport::fmt(multi.ib_max_duration_min)});
  t.add_row({"R_IB^max unsearchable (min)", TableReport::fmt(single.ib_unsearchable_min),
             TableReport::fmt(multi.ib_unsearchable_min)});
  t.add_row({"NA peak pull+push volume (MB)", TableReport::fmt(single.na_peak_pull_push_mb),
             TableReport::fmt(multi.na_peak_pull_push_mb)});
  t.add_row({"NA app tier util", TableReport::pct(single.na_app_util),
             TableReport::pct(multi.na_app_util)});
  t.add_row({"NA db tier util", TableReport::pct(single.na_db_util),
             TableReport::pct(multi.na_db_util)});
  t.print(std::cout);

  const double reduction =
      1.0 - multi.na_peak_pull_push_mb / std::max(1.0, single.na_peak_pull_push_mb);
  std::cout << "\nD_NA background transfer volume reduced by "
            << TableReport::pct(reduction)
            << " (thesis reports ~43%), at the price of relaxing index\n"
               "consistency from timeline to eventual (thesis §7.2.2).\n";
  return 0;
}
