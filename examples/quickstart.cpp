// Quickstart: build a small two-data-center infrastructure, attach a client
// workload, run 10 simulated minutes and print utilization + response times.
//
//   ./build/examples/quickstart
#include <iostream>

#include "example_args.h"
#include "sim/gdisim.h"

using namespace gdisim;

int main(int argc, char** argv) {
  examples::no_arguments(argc, argv, "quickstart");
  // 1. Describe the hardware in the thesis notation: T^(servers,cores,GB).
  InfrastructureBuilder builder(/*seed=*/2024);

  DataCenterBlueprint hq;
  hq.name = "HQ";
  hq.tiers[TierKind::App] = TierNotation{2, 4, 32.0};
  hq.tiers[TierKind::Db] = TierNotation{1, 8, 64.0};
  hq.tiers[TierKind::Fs] = TierNotation{1, 4, 16.0};
  hq.tiers[TierKind::Idx] = TierNotation{1, 4, 32.0};
  hq.san = SanNotation{1, 16, 15000.0};
  builder.add_datacenter(hq);

  DataCenterBlueprint branch;
  branch.name = "BRANCH";
  branch.tiers[TierKind::Fs] = TierNotation{1, 4, 16.0};
  branch.san = SanNotation{1, 8, 15000.0};
  builder.add_datacenter(branch);

  // 155 Mbps WAN link with 40 ms latency; applications may use 20% of it.
  builder.connect_duplex("HQ", "BRANCH", LinkNotation{0.155, 40.0, 0.2});

  // 2. Assemble the scenario: topology + operation catalog + workloads.
  Scenario scenario;
  scenario.tick_seconds = 0.02;
  scenario.topology = builder.finish();
  scenario.master_dc = scenario.topology->find_dc("HQ");
  scenario.ctx = std::make_unique<OperationContext>(*scenario.topology, scenario.master_dc);
  scenario.catalog = std::make_unique<OperationCatalog>(OperationCatalog::standard());

  const TickClock clock(scenario.tick_seconds);
  ClientPopulationConfig clients;
  clients.name = "CAD@BRANCH";
  clients.dc = scenario.topology->find_dc("BRANCH");
  clients.curve = WorkloadCurve::constant(20.0);  // 20 logged-in designers
  clients.mix = OperationMix::uniform(scenario.catalog->operations_of("CAD"));
  clients.think_time_mean_s = 30.0;
  clients.file_size_mb = 25.0;
  clients.seed = 7;
  scenario.populations.push_back(
      std::make_unique<ClientPopulation>(clients, *scenario.catalog, *scenario.ctx, clock));

  // 3. Run.
  GdiSimulator sim(std::move(scenario));
  std::cout << "Simulating 10 minutes of branch-office CAD work...\n";
  sim.run_for(10.0 * 60.0);

  // 4. Report.
  std::cout << "\nMean utilization over the run:\n";
  TableReport util({"resource", "utilization"});
  for (const char* label : {"cpu/HQ/app", "cpu/HQ/db", "cpu/HQ/fs", "cpu/HQ/idx",
                            "cpu/BRANCH/fs", "net/HQ->BRANCH", "net/BRANCH->HQ"}) {
    const TimeSeries* s = sim.collector().find(label);
    if (s != nullptr) util.add_row({label, TableReport::pct(s->mean_between(60, 600))});
  }
  util.print(std::cout);

  std::cout << "\nResponse times seen by BRANCH clients:\n";
  TableReport resp({"operation", "count", "mean (s)", "max (s)"});
  const ClientPopulation* pop = sim.scenario().populations[0].get();
  for (const auto& [op, stats] : pop->stats()) {
    resp.add_row({op, std::to_string(stats.count), TableReport::fmt(stats.mean()),
                  TableReport::fmt(stats.max_s)});
  }
  resp.print(std::cout);

  std::cout << "\nNote how chatty metadata operations (EXPLORE, SPATIAL-SEARCH)\n"
               "pay the WAN latency on every round trip to HQ, while OPEN/SAVE\n"
               "stream from the local file tier.\n";
  return 0;
}
