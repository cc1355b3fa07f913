// Figures 5-7..5-10 and Table 5.2: CPU utilization of T_app, T_db, T_fs and
// T_idx per experiment — steady-state mean and standard deviation, physical
// reference vs simulated.
//
// Substitution (DESIGN.md §1): the "physical" system is a reference
// realization of the same scenario with an independent seed plus
// measurement noise; the "simulated" system is the default-seed run. Both
// exercise the full model; Table 5.2 compares their steady-state moments.
#include "bench_util.h"
#include "core/rng.h"

using namespace gdisim;

namespace {

struct TierMoments {
  double mean[4];    // app, db, fs, idx
  double stddev[4];
};

TierMoments run(int experiment, std::uint64_t seed, bool add_noise) {
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

  const char* labels[4] = {"cpu/NA/app", "cpu/NA/db", "cpu/NA/fs", "cpu/NA/idx"};
  const double t0 = 4.0 * 60.0;
  const double t1 = horizon_s - 4.0 * 60.0;
  TierMoments m{};
  Rng noise(seed * 31 + 7);
  for (int i = 0; i < 4; ++i) {
    const TimeSeries* s = sim.collector().find(labels[i]);
    if (!add_noise) {
      m.mean[i] = s->mean_between(t0, t1);
      m.stddev[i] = s->stddev_between(t0, t1);
    } else {
      // Measurement noise of a real profiler: ~2% multiplicative jitter.
      TimeSeries noisy(labels[i]);
      for (const Sample& sample : s->samples()) {
        noisy.append(sample.t_seconds, sample.value * (1.0 + noise.next_normal(0.0, 0.02)));
      }
      m.mean[i] = noisy.mean_between(t0, t1);
      m.stddev[i] = noisy.stddev_between(t0, t1);
    }
  }
  return m;
}

}  // namespace

int main() {
  bench::header("CPU utilization by tier and experiment",
                "Figures 5-7..5-10 / Table 5.2 (steady-state mean & stddev, %)");

  const char* tiers[4] = {"T_app", "T_db", "T_fs", "T_idx"};
  // Table 5.2 paper values (physical mean, simulated mean) per experiment.
  const double paper_mean[3][4] = {{55.84, 39.04, 40.60, 19.04},
                                   {71.60, 49.20, 49.87, 29.20},
                                   {81.81, 57.20, 56.68, 36.99}};

  for (int exp = 1; exp <= 3; ++exp) {
    std::cout << "\nExperiment-" << exp << ":\n";
    const TierMoments phys = run(exp, /*seed=*/1000 + exp, /*add_noise=*/true);
    const TierMoments simu = run(exp, /*seed=*/42, /*add_noise=*/false);
    TableReport t({"Tier", "mu phys (sim)", "mu sim (sim)", "sigma phys", "sigma sim",
                   "mu paper-phys"});
    for (int i = 0; i < 4; ++i) {
      t.add_row({tiers[i], TableReport::pct(phys.mean[i]), TableReport::pct(simu.mean[i]),
                 TableReport::pct(phys.stddev[i]), TableReport::pct(simu.stddev[i]),
                 TableReport::fmt(paper_mean[exp - 1][i], 2) + "%"});
    }
    t.print(std::cout);
  }
  bench::footnote(
      "Shape: utilization ordering app > db ~ fs > idx in every experiment; "
      "Experiment-3 loads every tier hardest; simulated moments track the "
      "reference within a few percentage points.");
  return 0;
}
