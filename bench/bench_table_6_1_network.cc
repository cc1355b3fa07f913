// Table 6.1: average utilization of the allocated (20%) capacity during the
// 12:00-16:00 GMT interval for each WAN link of the consolidated
// infrastructure, including the idle EU backup links.
#include "bench_util.h"

using namespace gdisim;

int main() {
  bench::header("WAN link utilization during the global peak",
                "Table 6.1 (12:00-16:00 GMT, % of allocated capacity)");
  GlobalOptions opt;
  opt.scale = bench::fast_mode() ? 0.05 : 0.10;

  Scenario scenario = make_consolidated_scenario(opt);
  SimulatorConfig cfg;
  cfg.collect_every_s = 30.0;
  GdiSimulator sim(std::move(scenario), cfg);

  sim.run_for(11.0 * 3600.0);         // warm up to just before the window
  sim.run_for(5.0 * 3600.0);          // cover 11:00-16:00

  struct Row {
    const char* link;
    double paper_pct;
  };
  const Row rows[] = {
      {"net/NA->SA", 48},  {"net/NA->EU", 43},   {"net/NA->AS1", 59},
      {"net/EU->AFR", 0},  {"net/EU->AS1", 0},   {"net/AS1->AFR", 53},
      {"net/AS1->AS2", 47}, {"net/AS1->AUS", 54},
  };
  const double t0 = 12.0 * 3600.0, t1 = 16.0 * 3600.0;
  TableReport t({"Link", "mu_U sim", "mu_U paper"});
  for (const Row& r : rows) {
    const TimeSeries* s = sim.collector().find(r.link);
    t.add_row({r.link, s ? TableReport::pct(s->mean_between(t0, t1)) : "-",
               TableReport::fmt(r.paper_pct, 0) + "%"});
  }
  t.print(std::cout);
  bench::footnote(
      "Shape: NA->AS1 is the busiest (it carries pushes to four data "
      "centers); the EU backup links stay at 0% because routing ignores "
      "them; spoke links from AS1 run ~50%.");
  return 0;
}
