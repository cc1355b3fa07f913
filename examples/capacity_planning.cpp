// Capacity planning (thesis Figure 1-1, application #2): sweep the number of
// application servers and find the smallest deployment that keeps the app
// tier below a target utilization and response times within an SLA.
//
//   ./build/examples/capacity_planning [target_util=0.7]   (0 < target <= 1)
#include <iostream>

#include "example_args.h"
#include "sim/gdisim.h"

using namespace gdisim;

namespace {

struct SweepPoint {
  unsigned app_servers;
  double app_util;
  double login_mean_s;
  double open_mean_s;
};

SweepPoint run_point(unsigned app_servers) {
  InfrastructureBuilder builder(11);
  DataCenterBlueprint dc;
  dc.name = "DC";
  dc.tiers[TierKind::App] = TierNotation{app_servers, 2, 32.0};
  dc.tiers[TierKind::Db] = TierNotation{1, 8, 64.0};
  dc.tiers[TierKind::Fs] = TierNotation{1, 8, 16.0};
  dc.tiers[TierKind::Idx] = TierNotation{1, 4, 32.0};
  dc.san = SanNotation{2, 24, 15000.0};
  builder.add_datacenter(dc);

  Scenario scenario;
  scenario.tick_seconds = 0.02;
  scenario.topology = builder.finish();
  scenario.master_dc = 0;
  scenario.ctx = std::make_unique<OperationContext>(*scenario.topology, 0);
  scenario.catalog = std::make_unique<OperationCatalog>(OperationCatalog::standard());

  const TickClock clock(scenario.tick_seconds);
  ClientPopulationConfig clients;
  clients.name = "CAD@DC";
  clients.dc = 0;
  clients.curve = WorkloadCurve::constant(60.0);
  clients.mix = OperationMix::uniform(scenario.catalog->operations_of("CAD"));
  clients.think_time_mean_s = 30.0;
  clients.file_size_mb = 25.0;
  clients.seed = 3;
  scenario.populations.push_back(
      std::make_unique<ClientPopulation>(clients, *scenario.catalog, *scenario.ctx, clock));

  GdiSimulator sim(std::move(scenario), SimulatorConfig{6.0});
  sim.run_for(8.0 * 60.0);

  SweepPoint p;
  p.app_servers = app_servers;
  p.app_util = sim.collector().find("cpu/DC/app")->mean_between(120, 480);
  const auto& stats = sim.scenario().populations[0]->stats();
  p.login_mean_s = stats.count("CAD.LOGIN") ? stats.at("CAD.LOGIN").mean() : 0.0;
  p.open_mean_s = stats.count("CAD.OPEN") ? stats.at("CAD.OPEN").mean() : 0.0;
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  const double target =
      examples::optional_number(argc, argv, "capacity_planning", "target_util", 0.70, 1.0);
  std::cout << "Sweeping app-server count for 60 concurrent CAD clients\n"
            << "(SLA target: app tier below " << TableReport::pct(target) << ")\n\n";

  TableReport t({"app servers", "app util", "LOGIN mean (s)", "OPEN mean (s)", "meets SLA"});
  unsigned pick = 0;
  for (unsigned n : {1u, 2u, 3u, 4u, 6u, 8u}) {
    const SweepPoint p = run_point(n);
    const bool ok = p.app_util < target;
    if (ok && pick == 0) pick = n;
    t.add_row({std::to_string(p.app_servers), TableReport::pct(p.app_util),
               TableReport::fmt(p.login_mean_s), TableReport::fmt(p.open_mean_s),
               ok ? "yes" : "no"});
  }
  t.print(std::cout);

  if (pick != 0) {
    std::cout << "\nSmallest deployment meeting the SLA: " << pick << " app servers.\n";
  } else {
    std::cout << "\nNo swept deployment meets the SLA; increase server counts.\n";
  }
  return 0;
}
