// Table 5.3: Root Mean Square Error between the physical reference and the
// simulated run, for CPU per tier, concurrent clients, and response times.
#include "bench_util.h"
#include "core/rng.h"
#include "metrics/stats.h"

using namespace gdisim;

namespace {

struct RunSeries {
  TimeSeries cpu[4] = {TimeSeries("app"), TimeSeries("db"), TimeSeries("fs"),
                       TimeSeries("idx")};
  TimeSeries clients{"clients"};
  double mean_response_s = 0.0;
};

RunSeries run(int experiment, std::uint64_t seed, bool add_noise) {
  ValidationOptions opt;
  opt.experiment = experiment;
  opt.seed = seed;
  const double horizon_s = bench::fast_mode() ? 14.0 * 60.0 : 38.0 * 60.0;
  opt.stop_launch_s = horizon_s - 4.0 * 60.0;
  Scenario scenario = make_validation_scenario(opt);

  SimulatorConfig cfg;
  cfg.collect_every_s = 6.0;
  GdiSimulator sim(std::move(scenario), cfg);
  sim.run_for(horizon_s);

  RunSeries out;
  const char* labels[4] = {"cpu/NA/app", "cpu/NA/db", "cpu/NA/fs", "cpu/NA/idx"};
  Rng noise(seed * 17 + 3);
  for (int i = 0; i < 4; ++i) {
    const TimeSeries* s = sim.collector().find(labels[i]);
    for (const Sample& sample : s->samples()) {
      const double v =
          add_noise ? sample.value * (1.0 + noise.next_normal(0.0, 0.02)) : sample.value;
      out.cpu[i].append(sample.t_seconds, v);
    }
  }
  // Concurrent clients: sum of the three series launchers.
  const TimeSeries* light = sim.collector().find("series/series/light");
  const TimeSeries* avg = sim.collector().find("series/series/average");
  const TimeSeries* heavy = sim.collector().find("series/series/heavy");
  if (light && avg && heavy) {
    for (std::size_t i = 0; i < light->size(); ++i) {
      out.clients.append(light->samples()[i].t_seconds,
                         light->samples()[i].value + avg->samples()[i].value +
                             heavy->samples()[i].value);
    }
  }
  double total = 0.0;
  std::uint64_t count = 0;
  for (auto& l : sim.scenario().launchers) {
    for (const auto& [op, stats] : l->stats()) {
      total += stats.total_s;
      count += stats.count;
    }
  }
  out.mean_response_s = count ? total / count : 0.0;
  return out;
}

}  // namespace

int main() {
  bench::header("Validation accuracy: RMSE by experiment and measurement",
                "Table 5.3 (RMSE between physical reference and simulation)");

  TableReport t({"Experiment", "CPU Tapp", "CPU Tdb", "CPU Tfs", "CPU Tidx", "#C", "R"});
  for (int exp = 1; exp <= 3; ++exp) {
    const RunSeries phys = run(exp, 1000 + exp, /*add_noise=*/true);
    const RunSeries simu = run(exp, 42, /*add_noise=*/false);
    std::string cells[4];
    for (int i = 0; i < 4; ++i) {
      cells[i] = TableReport::pct(rmse(phys.cpu[i], simu.cpu[i]));
    }
    // Concurrent-client RMSE normalized by the mean level, as a fraction.
    const double client_rmse = rmse(phys.clients, simu.clients);
    const double client_mean =
        phys.clients.mean_between(0, phys.clients.samples().back().t_seconds + 1);
    const double resp_err = std::abs(phys.mean_response_s - simu.mean_response_s) /
                            std::max(1e-9, phys.mean_response_s);
    t.add_row({"Exp-" + std::to_string(exp), cells[0], cells[1], cells[2], cells[3],
               TableReport::pct(client_mean > 0 ? client_rmse / client_mean : 0.0),
               TableReport::pct(resp_err)});
  }
  t.print(std::cout);
  bench::footnote(
      "Thesis: CPU RMSE ~5-13% (Tdb/Tapp largest), concurrent clients "
      "5.1-6.5%, response time 5.0-6.9%. Our reference differs only by seed "
      "and profiler noise, so errors land at the low end of those bands.");
  return 0;
}
