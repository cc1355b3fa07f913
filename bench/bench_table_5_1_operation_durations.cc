// Table 5.1: duration of each CAD operation by series type (Light / Average
// / Heavy), measured as the canonical cost — a single isolated operation on
// the downscaled validation infrastructure.
#include "bench_util.h"

using namespace gdisim;

namespace {

double canonical_duration_s(const std::string& op, double size_mb) {
  ValidationOptions opt;
  opt.stop_launch_s = 0.0;
  Scenario scenario = make_validation_scenario(opt);
  SimulationLoop loop({scenario.tick_seconds, 0});
  scenario.register_with(loop);

  LaunchParams params;
  params.origin_dc = scenario.master_dc;
  params.size_mb = size_mb;
  params.instance_serial = 1;
  params.launcher_id = 9999;
  params.rng_seed = 4242;

  bool done = false;
  Tick end = 0;
  OperationInstance instance(scenario.catalog->get(op), *scenario.ctx, params,
                             [&](OperationInstance&, Tick t) {
                               done = true;
                               end = t;
                             });
  instance.start(loop.now());
  while (!done && loop.now() < 100000) loop.step();
  return done ? end * scenario.tick_seconds : -1.0;
}

}  // namespace

int main() {
  bench::header("Canonical operation durations by series",
                "Table 5.1 (Light / Average / Heavy series, seconds)");

  struct Row {
    const char* op;
    double paper_light, paper_avg, paper_heavy;
  };
  const Row rows[] = {
      {"CAD.LOGIN", 1.94, 2.2, 2.35},
      {"CAD.TEXT-SEARCH", 4.9, 5.11, 4.99},
      {"CAD.FILTER", 2.89, 2.6, 3.0},
      {"CAD.EXPLORE", 6.6, 6.43, 5.92},
      {"CAD.SPATIAL-SEARCH", 12.18, 12.15, 12.38},
      {"CAD.SELECT", 5.7, 6.2, 5.34},
      {"CAD.OPEN", 30.67, 64.68, 96.48},
      {"CAD.SAVE", 36.8, 78.21, 113.01},
  };

  TableReport t({"Operation", "Light (sim)", "Light (paper)", "Avg (sim)", "Avg (paper)",
                 "Heavy (sim)", "Heavy (paper)"});
  double total_l = 0, total_a = 0, total_h = 0;
  for (const Row& r : rows) {
    const double l = canonical_duration_s(r.op, SeriesSizes::kLightMb);
    const double a = canonical_duration_s(r.op, SeriesSizes::kAverageMb);
    const double h = canonical_duration_s(r.op, SeriesSizes::kHeavyMb);
    total_l += l;
    total_a += a;
    total_h += h;
    t.add_row({r.op, TableReport::fmt(l), TableReport::fmt(r.paper_light), TableReport::fmt(a),
               TableReport::fmt(r.paper_avg), TableReport::fmt(h),
               TableReport::fmt(r.paper_heavy)});
  }
  t.add_row({"TOTAL", TableReport::fmt(total_l), "101.68", TableReport::fmt(total_a), "177.58",
             TableReport::fmt(total_h), "243.47"});
  t.print(std::cout);
  bench::footnote(
      "Shape check: metadata ops are size-invariant; OPEN/SAVE scale with the "
      "file (~1.1 s/MB slope, SAVE ~20% above OPEN).");
  return 0;
}
