// Integration tests on the Ch. 5 validation scenario: canonical operation
// durations must reproduce Table 5.1 and the system must stay in the linear
// operating zone under Experiment-1 load.
#include <gtest/gtest.h>

#include "sim/gdisim.h"

namespace gdisim {
namespace {

/// Measures the canonical (single, isolated) duration of one operation on
/// the validation infrastructure — the thesis' canonical-cost procedure.
double canonical_duration_s(const std::string& op, double size_mb) {
  ValidationOptions opt;
  opt.stop_launch_s = 0.0;  // no background series
  Scenario scenario = make_validation_scenario(opt);

  HDispatchEngine engine(0, 64);
  SimulationLoop loop({scenario.tick_seconds, 0}, engine);
  scenario.register_with(loop);

  LaunchParams params;
  params.origin_dc = scenario.master_dc;
  params.size_mb = size_mb;
  params.instance_serial = 1;
  params.launcher_id = 9999;
  params.rng_seed = 4242;

  bool done = false;
  Tick end = 0;
  OperationInstance instance(scenario.catalog->get(op), *scenario.ctx, params,
                             [&](OperationInstance&, Tick t) {
                               done = true;
                               end = t;
                             });
  instance.start(loop.now());
  while (!done && loop.now() < 60000) loop.step();
  EXPECT_TRUE(done) << op;
  return end * scenario.tick_seconds;
}

struct DurationCase {
  const char* op;
  double light, average, heavy;  // Table 5.1 targets, seconds
};

// gtest's default dump of the struct prints the `op` pointer, which moves from
// run to run and would leak into the discovered test names.
void PrintTo(const DurationCase& c, std::ostream* os) { *os << c.op; }

class Table51 : public ::testing::TestWithParam<DurationCase> {};

TEST_P(Table51, CanonicalDurationWithinBand) {
  const DurationCase& c = GetParam();
  const double tol = 0.35;  // ±35% of the thesis' measured values
  const double light = canonical_duration_s(c.op, SeriesSizes::kLightMb);
  const double average = canonical_duration_s(c.op, SeriesSizes::kAverageMb);
  const double heavy = canonical_duration_s(c.op, SeriesSizes::kHeavyMb);
  EXPECT_NEAR(light, c.light, tol * c.light) << c.op << " light";
  EXPECT_NEAR(average, c.average, tol * c.average) << c.op << " average";
  EXPECT_NEAR(heavy, c.heavy, tol * c.heavy) << c.op << " heavy";
}

INSTANTIATE_TEST_SUITE_P(
    CadOps, Table51,
    ::testing::Values(DurationCase{"CAD.LOGIN", 1.94, 2.2, 2.35},
                      DurationCase{"CAD.TEXT-SEARCH", 4.9, 5.11, 4.99},
                      DurationCase{"CAD.FILTER", 2.89, 2.6, 3.0},
                      DurationCase{"CAD.EXPLORE", 6.6, 6.43, 5.92},
                      DurationCase{"CAD.SPATIAL-SEARCH", 12.18, 12.15, 12.38},
                      DurationCase{"CAD.SELECT", 5.7, 6.2, 5.34},
                      DurationCase{"CAD.OPEN", 30.67, 64.68, 96.48},
                      DurationCase{"CAD.SAVE", 36.8, 78.21, 113.01}),
    [](const ::testing::TestParamInfo<DurationCase>& tpi) {
      std::string n = tpi.param.op;
      for (char& ch : n) {
        if (ch == '.' || ch == '-') ch = '_';
      }
      return n;
    });

TEST(Table51, SizeInvarianceOfMetadataOps) {
  // Metadata operations must not depend on the series file size.
  for (const char* op : {"CAD.LOGIN", "CAD.EXPLORE"}) {
    const double light = canonical_duration_s(op, SeriesSizes::kLightMb);
    const double heavy = canonical_duration_s(op, SeriesSizes::kHeavyMb);
    EXPECT_NEAR(light, heavy, 0.05 * light) << op;
  }
}

TEST(Table51, TransfersScaleLinearly) {
  const double open25 = canonical_duration_s("CAD.OPEN", 25.0);
  const double open85 = canonical_duration_s("CAD.OPEN", 85.0);
  const double slope = (open85 - open25) / 60.0;
  // Thesis slope: (96.48 - 30.67) / 60 = 1.097 s/MB.
  EXPECT_NEAR(slope, 1.097, 0.25);
}

TEST(ValidationExperiment1, SteadyStateBehaviour) {
  ValidationOptions opt;
  opt.experiment = 1;
  opt.stop_launch_s = 12.0 * 60.0;
  Scenario scenario = make_validation_scenario(opt);

  SimulatorConfig cfg;
  cfg.collect_every_s = 6.0;
  cfg.threads = 4;
  GdiSimulator sim(std::move(scenario), cfg);
  sim.run_for(12.0 * 60.0);

  // Concurrent clients (series) in steady state: thesis Figure 5-6 shows
  // ~22 for Experiment-1. Allow a generous band.
  std::size_t concurrent = 0;
  for (auto& l : sim.scenario().launchers) concurrent += l->concurrent();
  EXPECT_GE(concurrent, 12u);
  EXPECT_LE(concurrent, 36u);

  // All four tiers must be busy but below saturation (linear zone).
  const TimeSeries* app = sim.collector().find("cpu/NA/app");
  const TimeSeries* db = sim.collector().find("cpu/NA/db");
  const TimeSeries* fs = sim.collector().find("cpu/NA/fs");
  const TimeSeries* idx = sim.collector().find("cpu/NA/idx");
  ASSERT_NE(app, nullptr);
  ASSERT_NE(db, nullptr);
  ASSERT_NE(fs, nullptr);
  ASSERT_NE(idx, nullptr);
  const double t0 = 6.0 * 60.0, t1 = 12.0 * 60.0;  // past the initial transient
  EXPECT_GT(app->mean_between(t0, t1), 0.25);
  EXPECT_LT(app->mean_between(t0, t1), 0.90);
  EXPECT_GT(db->mean_between(t0, t1), 0.10);
  EXPECT_LT(db->mean_between(t0, t1), 0.85);
  EXPECT_GT(fs->mean_between(t0, t1), 0.10);
  EXPECT_GT(idx->mean_between(t0, t1), 0.05);

  // App tier must be the hottest (Figure 5-7 vs 5-8..5-10).
  EXPECT_GT(app->mean_between(t0, t1), db->mean_between(t0, t1));
  EXPECT_GT(app->mean_between(t0, t1), idx->mean_between(t0, t1));

  // Series complete and their per-op durations stay near canonical values
  // (linear zone: no saturation-induced degradation).
  std::uint64_t completed = 0;
  for (auto& l : sim.scenario().launchers) completed += l->series_completed();
  EXPECT_GT(completed, 20u);
}

TEST(ValidationExperiments, PressureOrdering) {
  // Experiment-3 must load the system more than Experiment-1 (Table 5.2).
  auto run = [](int exp) {
    ValidationOptions opt;
    opt.experiment = exp;
    opt.stop_launch_s = 8.0 * 60.0;
    Scenario scenario = make_validation_scenario(opt);
    SimulatorConfig cfg;
    cfg.threads = 4;
    GdiSimulator sim(std::move(scenario), cfg);
    sim.run_for(8.0 * 60.0);
    return sim.collector().find("cpu/NA/app")->mean_between(4.0 * 60.0, 8.0 * 60.0);
  };
  const double u1 = run(1);
  const double u3 = run(3);
  EXPECT_GT(u3, u1 * 1.15);
}

}  // namespace
}  // namespace gdisim
