// Ablation: the sub-tick "instant stage" optimization (DESIGN.md §4,
// hardware/component.h). Sweeping the threshold shows the accuracy/speed
// trade: 0 disables the optimization (every metadata hop costs a full tick
// of queueing machinery), larger values skip more stages. The default 0.25
// must leave canonical durations essentially unchanged while cutting wall
// time substantially.
#include "bench_util.h"

using namespace gdisim;

namespace {

struct Point {
  double login_s = 0.0;
  double open_s = 0.0;
  double app_util = 0.0;
  double wall_s = 0.0;
};

Point run(double threshold) {
  ValidationOptions opt;
  opt.experiment = 2;
  const double horizon = bench::fast_mode() ? 6.0 * 60.0 : 12.0 * 60.0;
  opt.stop_launch_s = horizon;
  Scenario scenario = make_validation_scenario(opt);
  scenario.ctx->set_instant_fraction(threshold);

  GdiSimulator sim(std::move(scenario));
  bench::Stopwatch sw;
  sim.run_for(horizon);

  Point p;
  p.wall_s = sw.seconds();
  p.app_util = sim.collector().find("cpu/NA/app")->mean_between(horizon / 2, horizon);
  for (auto& l : sim.scenario().launchers) {
    const auto& stats = l->stats();
    if (stats.count("CAD.LOGIN")) p.login_s = stats.at("CAD.LOGIN").mean();
    if (stats.count("CAD.OPEN")) p.open_s = stats.at("CAD.OPEN").mean();
    break;  // light series is representative
  }
  return p;
}

}  // namespace

int main() {
  bench::header("Ablation: sub-tick stage threshold",
                "DESIGN.md §4 — accuracy vs speed of the instant-stage optimization");

  TableReport t({"threshold (x tick)", "LOGIN mean (s)", "OPEN mean (s)", "app util",
                 "wall time (s)"});
  for (double threshold : {0.0, 0.1, 0.25, 0.5, 1.0}) {
    const Point p = run(threshold);
    t.add_row({TableReport::fmt(threshold, 2), TableReport::fmt(p.login_s),
               TableReport::fmt(p.open_s), TableReport::pct(p.app_util),
               TableReport::fmt(p.wall_s, 2)});
  }
  t.print(std::cout);
  bench::footnote(
      "Expected: durations shift by at most a few tick-lengths per message "
      "hop across thresholds <= 0.5, while wall time drops as tiny network "
      "stages stop consuming full scheduling rounds. Utilization is "
      "threshold-invariant because skipped work is still accounted.");
  return 0;
}
