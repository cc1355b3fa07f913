// Figures 6-12 and 6-13: CPU utilization through the day in D_NA (all four
// tiers) and D_AUS (file tier), with the logged-in/active client counts.
#include "bench_util.h"

using namespace gdisim;

int main() {
  bench::header("Consolidated infrastructure: CPU utilization through the day",
                "Figures 6-12 (D_NA tiers) / 6-13 (D_AUS file tier)");
  GlobalOptions opt;
  opt.scale = bench::fast_mode() ? 0.05 : 0.10;

  Scenario scenario = make_consolidated_scenario(opt);
  SimulatorConfig cfg;
  cfg.collect_every_s = 60.0;
  GdiSimulator sim(std::move(scenario), cfg);

  const double hours = bench::fast_mode() ? 8.0 : 24.0;
  const double start_h = bench::fast_mode() ? 9.0 : 0.0;
  if (start_h > 0) sim.run_for(start_h * 3600.0);
  sim.run_for(hours * 3600.0);

  auto print_hourly = [&](const std::vector<const char*>& labels) {
    std::vector<std::string> headers{"Hour"};
    for (const char* l : labels) headers.push_back(l);
    TableReport t(headers);
    for (double h = start_h; h < start_h + hours; h += 1.0) {
      std::vector<std::string> row{TableReport::fmt(h, 0) + ":00"};
      for (const char* l : labels) {
        const TimeSeries* s = sim.collector().find(l);
        if (s == nullptr) {
          row.push_back("-");
          continue;
        }
        const double v = s->mean_between(h * 3600, (h + 1) * 3600);
        const bool is_count = std::string(l).rfind("clients/", 0) == 0;
        row.push_back(is_count ? TableReport::fmt(v, 0) : TableReport::pct(v));
      }
      t.add_row(row);
    }
    t.print(std::cout);
  };

  std::cout << "\nD_NA tiers + world client counts (Figure 6-12):\n";
  print_hourly({"cpu/NA/app", "cpu/NA/db", "cpu/NA/idx", "cpu/NA/fs", "clients/logged_in",
                "clients/active"});
  std::cout << "\nD_AUS file tier (Figure 6-13):\n";
  print_hourly({"cpu/AUS/fs"});

  const TimeSeries* app = sim.collector().find("cpu/NA/app");
  std::cout << "\nPeak D_NA app-tier utilization: " << TableReport::pct(app->max_value())
            << " (thesis: ~73% at 15:00 GMT)\n";
  bench::footnote(
      "Shape: every operation is authorized through D_NA, so T_app in NA is "
      "the hottest tier, peaking with the 12:00-16:00 GMT overlap; T_fs in "
      "AUS tracks only the local (small) population.");
  return 0;
}
