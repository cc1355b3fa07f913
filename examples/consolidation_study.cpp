// Consolidation case study (thesis Ch. 6) in miniature: run the consolidated
// six-continent infrastructure through the global peak window and report
// what a data center operator would look at — tier utilization in the MDC,
// WAN occupancy, background-job effectiveness, and client experience.
//
//   ./build/examples/consolidation_study [hours=6] [scale=0.05]
#include <cstdlib>
#include <iostream>

#include "sim/gdisim.h"

using namespace gdisim;

int main(int argc, char** argv) {
  const double hours = argc > 1 ? std::atof(argv[1]) : 6.0;
  GlobalOptions opt;
  opt.scale = argc > 2 ? std::atof(argv[2]) : 0.05;

  std::cout << "Consolidated infrastructure (single master D_NA), scale=" << opt.scale
            << "\nSimulating " << hours << " h starting at 10:00 GMT...\n";

  Scenario scenario = make_consolidated_scenario(opt);
  GdiSimulator sim(std::move(scenario), SimulatorConfig{30.0});

  // Warp to 10:00 GMT so the run covers the 12:00-16:00 global peak.
  sim.run_for(10.0 * 3600.0);
  const double t0 = sim.now_seconds();
  sim.run_for(hours * 3600.0);
  const double t1 = sim.now_seconds();

  std::cout << "\nMaster data center utilization (mean over window):\n";
  TableReport cpu({"tier", "mean util", "peak util"});
  for (const char* label : {"cpu/NA/app", "cpu/NA/db", "cpu/NA/fs", "cpu/NA/idx"}) {
    const TimeSeries* s = sim.collector().find(label);
    cpu.add_row({label, TableReport::pct(s->mean_between(t0, t1)),
                 TableReport::pct(s->max_value())});
  }
  cpu.print(std::cout);

  std::cout << "\nWAN link occupancy (of the 20% allocated capacity):\n";
  TableReport net({"link", "mean util"});
  for (const char* label : {"net/NA->EU", "net/NA->SA", "net/NA->AS1", "net/AS1->AFR",
                            "net/AS1->AS2", "net/AS1->AUS"}) {
    const TimeSeries* s = sim.collector().find(label);
    net.add_row({label, TableReport::pct(s->mean_between(t0, t1))});
  }
  net.print(std::cout);

  SynchRepDaemon* sr = sim.scenario().synchreps.at(0).get();
  IndexBuildDaemon* ib = sim.scenario().indexbuilds.at(0).get();
  std::cout << "\nBackground processes:\n"
            << "  SYNCHREP runs: " << sr->ledger().runs().size()
            << ", longest " << TableReport::fmt(sr->ledger().max_duration_s() / 60.0)
            << " min, R_SR^max = " << TableReport::fmt(sr->max_staleness_s() / 60.0)
            << " min\n"
            << "  INDEXBUILD runs: " << ib->ledger().runs().size()
            << ", longest " << TableReport::fmt(ib->ledger().max_duration_s() / 60.0)
            << " min, R_IB^max = " << TableReport::fmt(ib->max_unsearchable_s() / 60.0)
            << " min\n";

  std::cout << "\nClient experience (CAD in NA vs AUS):\n";
  TableReport resp({"operation", "NA mean (s)", "AUS mean (s)"});
  ClientPopulation* na = sim.scenario().population("CAD@NA");
  ClientPopulation* aus = sim.scenario().population("CAD@AUS");
  if (na != nullptr && aus != nullptr) {
    for (const auto& [op, stats] : na->stats()) {
      const auto it = aus->stats().find(op);
      resp.add_row({op, TableReport::fmt(stats.mean()),
                    it != aus->stats().end() ? TableReport::fmt(it->second.mean()) : "-"});
    }
  }
  resp.print(std::cout);
  std::cout << "\nChatty operations (EXPLORE, SPATIAL-SEARCH, SELECT) degrade with\n"
               "distance from the master; bulk OPEN/SAVE barely notice it.\n";
  return 0;
}
