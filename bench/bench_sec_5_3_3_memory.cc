// §5.3.3 memory validation: the physical servers show a *flat* memory
// profile (kernel/runtime pools dominate) while the workload-driven model
// predicts orders-of-magnitude smaller dynamic occupancy — the thesis'
// honest negative result, reproduced here by reporting both views.
#include "bench_util.h"

using namespace gdisim;

int main() {
  bench::header("Memory validation: model vs observed (pool-dominated)",
                "Section 5.3.3 (flat physical profile vs workload-driven model)");

  ValidationOptions opt;
  opt.experiment = 2;
  const double horizon_s = bench::fast_mode() ? 10.0 * 60.0 : 20.0 * 60.0;
  opt.stop_launch_s = horizon_s;
  Scenario scenario = make_validation_scenario(opt);

  GdiSimulator sim(std::move(scenario));
  sim.run_for(horizon_s);

  struct TierInfo {
    const char* label;
    TierKind kind;
    double paper_observed_gb;
  };
  const TierInfo tiers[] = {{"T_app", TierKind::App, 32.0},
                            {"T_db", TierKind::Db, 28.0},
                            {"T_fs", TierKind::Fs, 12.0},
                            {"T_idx", TierKind::Idx, 12.0}};

  TableReport t({"Tier", "model peak (GB)", "observed/pool (GB)", "paper observed (GB)"});
  DataCenter& na = sim.scenario().dc("NA");
  for (const TierInfo& ti : tiers) {
    Tier* tier = na.tier(ti.kind);
    const std::string label = std::string("mem/NA/") + tier_kind_name(ti.kind);
    const TimeSeries* s = sim.collector().find(label);
    const double model_peak_gb = s->max_value() / (1ull << 30);
    double observed_gb = 0.0;
    for (std::size_t i = 0; i < tier->server_count(); ++i) {
      observed_gb += tier->server(i).memory().observed_bytes() / (1ull << 30);
    }
    t.add_row({ti.label, TableReport::fmt(model_peak_gb, 3), TableReport::fmt(observed_gb, 1),
               TableReport::fmt(ti.paper_observed_gb, 1)});
  }
  t.print(std::cout);
  bench::footnote(
      "Thesis conclusion (reproduced): the workload-driven occupancy is "
      "orders of magnitude below the flat pool reservation, so the memory "
      "model needs OS/runtime effects to be useful. The 'observed' column is "
      "flat at the pool size regardless of workload.");
  return 0;
}
