// Bottleneck detection (thesis Figure 1-1, application #5): ramp the client
// population until some resource saturates, and report which component hits
// the wall first and how response times degrade past that point.
//
//   ./build/examples/bottleneck_detection
#include <iostream>
#include <vector>

#include "sim/gdisim.h"

using namespace gdisim;

namespace {

struct RampPoint {
  unsigned clients;
  double app_util, db_util, fs_util, idx_util;
  double explore_mean_s;
};

RampPoint run_point(unsigned clients) {
  InfrastructureBuilder builder(21);
  DataCenterBlueprint dc;
  dc.name = "DC";
  dc.tiers[TierKind::App] = TierNotation{2, 2, 32.0};
  dc.tiers[TierKind::Db] = TierNotation{1, 2, 64.0};
  dc.tiers[TierKind::Fs] = TierNotation{1, 2, 16.0};
  dc.tiers[TierKind::Idx] = TierNotation{1, 2, 32.0};
  dc.san = SanNotation{2, 24, 15000.0};
  builder.add_datacenter(dc);

  Scenario scenario;
  scenario.tick_seconds = 0.02;
  scenario.topology = builder.finish();
  scenario.master_dc = 0;
  scenario.ctx = std::make_unique<OperationContext>(*scenario.topology, 0);
  scenario.catalog = std::make_unique<OperationCatalog>(OperationCatalog::standard());

  const TickClock clock(scenario.tick_seconds);
  ClientPopulationConfig cfg;
  cfg.name = "CAD@DC";
  cfg.dc = 0;
  cfg.curve = WorkloadCurve::constant(clients);
  cfg.mix = OperationMix::uniform(scenario.catalog->operations_of("CAD"));
  cfg.think_time_mean_s = 30.0;
  cfg.file_size_mb = 25.0;
  cfg.seed = 5;
  scenario.populations.push_back(
      std::make_unique<ClientPopulation>(cfg, *scenario.catalog, *scenario.ctx, clock));

  GdiSimulator sim(std::move(scenario), SimulatorConfig{6.0});
  sim.run_for(8.0 * 60.0);

  RampPoint p{};
  p.clients = clients;
  p.app_util = sim.collector().find("cpu/DC/app")->mean_between(240, 480);
  p.db_util = sim.collector().find("cpu/DC/db")->mean_between(240, 480);
  p.fs_util = sim.collector().find("cpu/DC/fs")->mean_between(240, 480);
  p.idx_util = sim.collector().find("cpu/DC/idx")->mean_between(240, 480);
  const auto& stats = sim.scenario().populations[0]->stats();
  if (stats.count("CAD.EXPLORE")) p.explore_mean_s = stats.at("CAD.EXPLORE").mean();
  return p;
}

}  // namespace

int main() {
  std::cout << "Ramping CAD clients against a small data center...\n\n";
  TableReport t({"clients", "app", "db", "fs", "idx", "EXPLORE mean (s)"});
  std::vector<RampPoint> points;
  for (unsigned n : {10u, 20u, 40u, 60u, 80u, 120u}) {
    points.push_back(run_point(n));
    const RampPoint& p = points.back();
    t.add_row({std::to_string(p.clients), TableReport::pct(p.app_util),
               TableReport::pct(p.db_util), TableReport::pct(p.fs_util),
               TableReport::pct(p.idx_util), TableReport::fmt(p.explore_mean_s)});
  }
  t.print(std::cout);

  // Identify the resource closest to saturation at the highest ramp point.
  const RampPoint& last = points.back();
  const char* bottleneck = "app tier";
  double worst = last.app_util;
  if (last.db_util > worst) {
    worst = last.db_util;
    bottleneck = "db tier";
  }
  if (last.fs_util > worst) {
    worst = last.fs_util;
    bottleneck = "fs tier";
  }
  if (last.idx_util > worst) {
    worst = last.idx_util;
    bottleneck = "idx tier";
  }
  std::cout << "\nFirst bottleneck: " << bottleneck << " at "
            << TableReport::pct(worst)
            << " — response times grow nonlinearly once it saturates\n"
               "(the thesis' 'linear operation zone' boundary, §5.2.4).\n";
  return 0;
}
