// Ablation: memory cache-hit rate (thesis Figure 3-5 — "a cache hit is
// modeled by bypassing the subsequent queues"). Sweeping the hit rate shows
// how much the storage path (RAID/SAN) is shielded by RAM caching, and the
// knock-on effect on transfer-heavy operation latencies.
#include "bench_util.h"

using namespace gdisim;

namespace {

struct Point {
  double open_s = 0.0;
  double save_s = 0.0;
  double fs_util = 0.0;
};

Point run(double hit_rate) {
  ValidationOptions opt;
  opt.experiment = 3;  // heaviest disk pressure
  opt.mem_cache_hit = hit_rate;
  const double horizon = bench::fast_mode() ? 6.0 * 60.0 : 12.0 * 60.0;
  opt.stop_launch_s = horizon;
  Scenario scenario = make_validation_scenario(opt);
  GdiSimulator sim(std::move(scenario));
  sim.run_for(horizon);

  Point p;
  p.fs_util = sim.collector().find("cpu/NA/fs")->mean_between(horizon / 2, horizon);
  std::uint64_t n_open = 0, n_save = 0;
  for (auto& l : sim.scenario().launchers) {
    const auto& stats = l->stats();
    if (stats.count("CAD.OPEN")) {
      p.open_s += stats.at("CAD.OPEN").total_s;
      n_open += stats.at("CAD.OPEN").count;
    }
    if (stats.count("CAD.SAVE")) {
      p.save_s += stats.at("CAD.SAVE").total_s;
      n_save += stats.at("CAD.SAVE").count;
    }
  }
  if (n_open) p.open_s /= n_open;
  if (n_save) p.save_s /= n_save;
  return p;
}

}  // namespace

int main() {
  bench::header("Ablation: memory cache-hit rate",
                "Thesis Figure 3-5 — cache bypass of the storage queues");

  TableReport t({"hit rate", "OPEN mean (s)", "SAVE mean (s)", "fs cpu util"});
  for (double hit : {0.0, 0.30, 0.60, 0.90}) {
    const Point p = run(hit);
    t.add_row({TableReport::pct(hit, 0), TableReport::fmt(p.open_s), TableReport::fmt(p.save_s),
               TableReport::pct(p.fs_util)});
  }
  t.print(std::cout);
  bench::footnote(
      "Expected: higher hit rates bypass the SAN fork-join for a growing "
      "fraction of accesses; OPEN/SAVE shed their disk component while the "
      "CPU-bound share of fs utilization persists.");
  return 0;
}
