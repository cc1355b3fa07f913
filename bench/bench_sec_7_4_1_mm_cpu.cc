// §7.4.1: computational performance of the multiple-master infrastructure —
// D_NA keeps comparable utilization on half the app servers / half the db
// cores thanks to the global-workload and synchronization offload, while
// D_EU steps up as the second-largest master.
#include "bench_util.h"

using namespace gdisim;

int main() {
  bench::header("Multiple-master CPU utilization",
                "Section 7.4.1 (D_NA on half the hardware; D_EU as 2nd master)");
  GlobalOptions opt;
  opt.scale = bench::fast_mode() ? 0.05 : 0.10;

  Scenario scenario = make_multimaster_scenario(opt);
  SimulatorConfig cfg;
  cfg.collect_every_s = 60.0;
  GdiSimulator sim(std::move(scenario), cfg);

  sim.run_for(11.0 * 3600.0);
  sim.run_for(5.0 * 3600.0);  // cover 11:00-16:00 GMT

  const double t0 = 12.0 * 3600.0, t1 = 16.0 * 3600.0;
  struct Row {
    const char* label;
    const char* paper;
  };
  const Row rows[] = {
      {"cpu/NA/app", "~78% (4 servers vs 8)"},
      {"cpu/NA/db", "~39% (half the cores)"},
      {"cpu/EU/app", "~57% (3 servers)"},
      {"cpu/EU/db", "~48%"},
      {"cpu/AS1/app", "(small master)"},
      {"cpu/SA/app", "(small master)"},
  };
  TableReport t({"Tier", "mean util 12-16 GMT", "peak", "paper"});
  for (const Row& r : rows) {
    const TimeSeries* s = sim.collector().find(r.label);
    if (s == nullptr) continue;
    t.add_row({r.label, TableReport::pct(s->mean_between(t0, t1)),
               TableReport::pct(s->max_value()), r.paper});
  }
  t.print(std::cout);
  bench::footnote(
      "Shape: D_NA stays in a healthy band on half the hardware because "
      "~82% of its requests are local and other regions now route most "
      "traffic to their own masters (Table 7.2); D_EU needs real capacity "
      "as the second-largest owner.");
  return 0;
}
