// Figures 6-15..6-20 and Table 6.2: operation response times through the
// day for CAD / VIS / PDM in D_NA and D_AUS, and the latency penalty of
// operating far from the master.
#include "bench_util.h"

using namespace gdisim;

namespace {

void print_population(ClientPopulation* pop) {
  if (pop == nullptr) {
    std::cout << "(population not present at this scale)\n";
    return;
  }
  TableReport t({"Operation", "count", "mean (s)", "min (s)", "max (s)"});
  for (const auto& [op, stats] : pop->stats()) {
    t.add_row({op, std::to_string(stats.count), TableReport::fmt(stats.mean()),
               TableReport::fmt(stats.min_s), TableReport::fmt(stats.max_s)});
  }
  t.print(std::cout);
}

}  // namespace

int main() {
  bench::header("Client response times by application and data center",
                "Figures 6-15..6-20 / Table 6.2");
  GlobalOptions opt;
  opt.scale = bench::fast_mode() ? 0.05 : 0.10;

  Scenario scenario = make_consolidated_scenario(opt);
  SimulatorConfig cfg;
  cfg.collect_every_s = 60.0;
  GdiSimulator sim(std::move(scenario), cfg);

  // Cover both the NA and AUS business windows.
  const double hours = bench::fast_mode() ? 10.0 : 24.0;
  const double start_h = bench::fast_mode() ? 12.0 : 0.0;
  if (start_h > 0) sim.run_for(start_h * 3600.0);
  sim.run_for(hours * 3600.0);

  for (const char* app : {"CAD", "VIS", "PDM"}) {
    std::cout << "\n" << app << " response times in D_NA:\n";
    print_population(sim.scenario().population(std::string(app) + "@NA"));
  }
  for (const char* app : {"CAD", "VIS", "PDM"}) {
    std::cout << "\n" << app << " response times in D_AUS:\n";
    print_population(sim.scenario().population(std::string(app) + "@AUS"));
  }

  // Table 6.2: latency penalty for CAD operations launched from D_AUS.
  std::cout << "\nTable 6.2 — CAD latency penalty in D_AUS vs D_NA:\n";
  ClientPopulation* na = sim.scenario().population("CAD@NA");
  ClientPopulation* aus = sim.scenario().population("CAD@AUS");
  if (na != nullptr && aus != nullptr) {
    struct PaperRow {
      const char* op;
      double paper_pct;
    };
    const PaperRow paper[] = {
        {"CAD.LOGIN", 64.54},         {"CAD.TEXT-SEARCH", 27.39}, {"CAD.FILTER", 53.84},
        {"CAD.EXPLORE", 141.52},      {"CAD.SPATIAL-SEARCH", 80.65}, {"CAD.SELECT", 79.03},
        {"CAD.OPEN", 1.08},           {"CAD.SAVE", 0.89},
    };
    TableReport t({"Operation", "R_NA (s)", "R_AUS (s)", "dR (s)", "dR/R_NA", "paper dR/R_NA"});
    for (const PaperRow& pr : paper) {
      const auto ita = na->stats().find(pr.op);
      const auto itb = aus->stats().find(pr.op);
      if (ita == na->stats().end() || itb == aus->stats().end()) continue;
      const double rna = ita->second.mean();
      const double raus = itb->second.mean();
      t.add_row({pr.op, TableReport::fmt(rna), TableReport::fmt(raus),
                 TableReport::fmt(raus - rna), TableReport::pct((raus - rna) / rna),
                 TableReport::fmt(pr.paper_pct, 1) + "%"});
    }
    t.print(std::cout);
  }
  bench::footnote(
      "Shape: response times are workload-agnostic below saturation; chatty "
      "metadata operations (EXPLORE, SPATIAL-SEARCH, SELECT) suffer large "
      "relative latency penalties from AUS, bulky OPEN/SAVE ~1% (files are "
      "served by the local T_fs).");
  return 0;
}
