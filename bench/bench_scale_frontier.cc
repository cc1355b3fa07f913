// Scale frontier (ISSUE 7): sweep the consolidated global scenario across
// population scales and chart, per scale point, the client capacity, the
// simulation rate, and the memory footprint. "Sustainable" means the
// simulator advances simulated time at least as fast as wall time on this
// host (realtime ratio >= 1); the frontier is the largest sustainable scale.
//
// Scales sweep ascending so the per-point peak-RSS delta approximates the
// footprint of that scenario: each simulator is destroyed before the next
// point starts, and a larger scenario pushes the process high-water mark up
// by roughly its own incremental footprint.
#include <iomanip>

#include "bench_util.h"

using namespace gdisim;

namespace {

struct ScalePoint {
  double scale = 0.0;
  double clients = 0.0;  // summed population slot capacity
  double wall_seconds = 0.0;
  double sim_ticks = 0.0;
  double ticks_per_second = 0.0;
  double realtime_ratio = 0.0;  // sim seconds per wall second
  double rss_before_mb = 0.0;
  double rss_after_mb = 0.0;
  double bytes_per_client = 0.0;
  double alloc_delta = 0.0;
};

std::string key(double scale, const char* suffix) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "s%g_%s", scale, suffix);
  return buf;
}

}  // namespace

int main() {
  bench::header("Scale frontier: consolidated scenario beyond the default 10% scale",
                "Ch. 6 infrastructure at scale 0.1 .. 2.0 (DESIGN.md, Memory layout)");

  // CI perf-smoke (fast mode) runs a tiny simulated window on two scales so
  // the leg finishes in seconds while still exercising scale-1.0
  // construction; the full sweep charts the whole frontier.
  const bool fast = bench::fast_mode();
  const std::vector<double> scales =
      fast ? std::vector<double>{0.1, 1.0} : std::vector<double>{0.1, 0.25, 0.5, 1.0, 2.0};
  const double hours = fast ? 0.05 : 2.0;

  bench::JsonResult json("scale_frontier");
  json.set("scenario", "consolidated");
  json.set("hours", hours);

  std::vector<ScalePoint> points;
  for (double scale : scales) {
    GlobalOptions opt;
    opt.scale = scale;

    ScalePoint pt;
    pt.scale = scale;
    pt.rss_before_mb = bench::peak_rss_mb();
    const std::uint64_t alloc_before = bench::alloc_count();
    {
      Scenario scenario = make_consolidated_scenario(opt);
      for (const auto& p : scenario.populations)
        pt.clients += static_cast<double>(p->slot_count());

      SimulatorConfig cfg;
      cfg.threads = bench::bench_threads();
      GdiSimulator sim(std::move(scenario), cfg);

      bench::Stopwatch watch;
      sim.run_for(hours * 3600.0);
      pt.wall_seconds = watch.seconds();
      pt.sim_ticks = static_cast<double>(sim.loop().now());
    }
    pt.rss_after_mb = bench::peak_rss_mb();
    pt.alloc_delta = static_cast<double>(bench::alloc_count() - alloc_before);
    pt.ticks_per_second = pt.wall_seconds > 0 ? pt.sim_ticks / pt.wall_seconds : 0.0;
    pt.realtime_ratio =
        pt.wall_seconds > 0 ? hours * 3600.0 / pt.wall_seconds : 0.0;
    pt.bytes_per_client =
        pt.clients > 0 ? (pt.rss_after_mb - pt.rss_before_mb) * 1024.0 * 1024.0 / pt.clients
                       : 0.0;
    points.push_back(pt);

    json.set(key(scale, "clients"), pt.clients);
    json.set(key(scale, "wall_seconds"), pt.wall_seconds);
    json.set(key(scale, "sim_ticks"), pt.sim_ticks);
    json.set(key(scale, "ticks_per_second"), pt.ticks_per_second);
    json.set(key(scale, "realtime_ratio"), pt.realtime_ratio);
    json.set(key(scale, "peak_rss_mb"), pt.rss_after_mb);
    json.set(key(scale, "bytes_per_client"), pt.bytes_per_client);
    json.set(key(scale, "alloc_delta"), pt.alloc_delta);
  }

  // The frontier: largest sustainable scale (and its client count).
  double frontier_scale = 0.0, frontier_clients = 0.0;
  for (const ScalePoint& pt : points) {
    if (pt.realtime_ratio >= 1.0 && pt.scale > frontier_scale) {
      frontier_scale = pt.scale;
      frontier_clients = pt.clients;
    }
  }
  json.set("max_sustainable_scale", frontier_scale);
  json.set("max_sustainable_clients", frontier_clients);

  TableReport t({"Scale", "Clients", "Ticks/s", "xRealtime", "PeakRSS MB", "B/client"});
  for (const ScalePoint& pt : points) {
    t.add_row({TableReport::fmt(pt.scale, 2), TableReport::fmt(pt.clients, 0),
               TableReport::fmt(pt.ticks_per_second, 0), TableReport::fmt(pt.realtime_ratio, 1),
               TableReport::fmt(pt.rss_after_mb, 1), TableReport::fmt(pt.bytes_per_client, 0)});
  }
  t.print(std::cout);
  std::cout << "\nMax sustainable scale on this host: " << frontier_scale << " ("
            << static_cast<std::size_t>(frontier_clients) << " clients)\n";

  const bool ok = json.write();
  bench::footnote(
      "Realtime ratio is simulated seconds per wall second; the frontier is "
      "the largest scale that still runs at least as fast as real time. "
      "Bytes/client uses the peak-RSS delta of the ascending sweep and is an "
      "upper-bound approximation.");
  return ok ? 0 : 1;
}
