// Scale-invariance regression (ISSUE 7): the GlobalOptions::scale knob must
// change *volumes* linearly while preserving *shapes* — the same (app, DC)
// populations exist at every scale, capacities grow proportionally, and
// utilization (hardware is scaled with the population) stays comparable.
// Also pins the snapshot round trip over the dense per-op statistics tables:
// a forked simulator must continue to the same fingerprint as the original.
#include <gtest/gtest.h>

#include "config/scenarios.h"
#include "sim/fingerprint.h"
#include "sim/gdisim.h"

namespace gdisim {
namespace {

constexpr int kExpectedPopulations = 7 * 3;  // 7 DCs x {CAD, VIS, PDM}

double total_capacity(const Scenario& s) {
  double n = 0;
  for (const auto& p : s.populations) n += static_cast<double>(p->slot_count());
  return n;
}

double total_completions(Scenario& s) {
  double n = 0;
  for (auto& p : s.populations) {
    for (const auto& [op, stats] : p->stats()) n += static_cast<double>(stats.count);
  }
  return n;
}

TEST(ScaleInvariance, TinyScaleKeepsEveryPopulation) {
  // Scales that round a small population's peak below one client used to
  // drop the population entirely; now it is clamped to one client so every
  // (app, DC) pair exists at every scale.
  GlobalOptions opt;
  opt.scale = 0.001;
  Scenario s = make_consolidated_scenario(opt);
  EXPECT_EQ(s.populations.size(), static_cast<std::size_t>(kExpectedPopulations));
  for (const auto& p : s.populations) EXPECT_GE(p->slot_count(), 1u) << p->name();
}

TEST(ScaleInvariance, CapacityScalesLinearly) {
  GlobalOptions opt;
  opt.scale = 0.1;
  Scenario s01 = make_consolidated_scenario(opt);
  opt.scale = 0.5;
  Scenario s05 = make_consolidated_scenario(opt);
  ASSERT_EQ(s01.populations.size(), s05.populations.size());
  const double ratio = total_capacity(s05) / total_capacity(s01);
  // Per-population peaks round to whole clients, so the summed ratio is
  // near-linear but not exact.
  EXPECT_NEAR(ratio, 5.0, 0.25);
}

TEST(ScaleInvariance, ShapesAgreeVolumesLinear) {
  // 90 simulated minutes from midnight GMT: the AS1/AS2 (and wrapped AUS)
  // business windows are active, so real work flows at both scales.
  const double horizon_s = 1.5 * 3600.0;
  auto run = [&](double scale) {
    GlobalOptions opt;
    opt.scale = scale;
    SimulatorConfig cfg;
    cfg.collect_every_s = 60.0;
    auto sim = std::make_unique<GdiSimulator>(make_consolidated_scenario(opt), cfg);
    sim->run_for(horizon_s);
    return sim;
  };
  auto sim01 = run(0.1);
  auto sim05 = run(0.5);

  // Volumes: completed operations grow with the population. The workload is
  // stochastic, so only the order of magnitude is pinned.
  const double done01 = total_completions(sim01->scenario());
  const double done05 = total_completions(sim05->scenario());
  ASSERT_GT(done01, 0.0);
  ASSERT_GT(done05, 0.0);
  const double ratio = done05 / done01;
  EXPECT_GT(ratio, 5.0 * 0.65) << "volumes grew sub-linearly";
  EXPECT_LT(ratio, 5.0 * 1.35) << "volumes grew super-linearly";

  // Shapes: hardware scales with the population, so utilization of the busy
  // AS1 file tier must land in the same band at both scales.
  for (const char* label : {"cpu/AS1/fs", "cpu/NA/app"}) {
    const TimeSeries* u01 = sim01->collector().find(label);
    const TimeSeries* u05 = sim05->collector().find(label);
    ASSERT_NE(u01, nullptr) << label;
    ASSERT_NE(u05, nullptr) << label;
    const double m01 = u01->mean_between(0, horizon_s);
    const double m05 = u05->mean_between(0, horizon_s);
    EXPECT_GT(m05, 0.0) << label;
    EXPECT_NEAR(m01, m05, 0.5 * std::max(m01, m05) + 0.02) << label;
  }
}

TEST(ScaleInvariance, SnapshotRoundTripPreservesStatsTables) {
  // Fork mid-run (live operations in flight, per-op stats tables non-empty)
  // and continue both the original and the fork to the same horizon: the
  // result fingerprints — which digest the per-op statistics — must match.
  GlobalOptions opt;
  opt.scale = 0.05;
  GdiSimulator original(make_consolidated_scenario(opt));
  original.run_for(0.5 * 3600.0);
  const std::vector<std::uint8_t> payload = original.save_state();

  GdiSimulator fork(make_consolidated_scenario(opt));
  fork.load_state(payload);
  EXPECT_DOUBLE_EQ(fork.now_seconds(), original.now_seconds());

  original.run_until_seconds(1.0 * 3600.0);
  fork.run_until_seconds(1.0 * 3600.0);
  EXPECT_EQ(result_fingerprint(original), result_fingerprint(fork));

  // And a re-save of the fork's continued state must round-trip again.
  GdiSimulator fork2(make_consolidated_scenario(opt));
  fork2.load_state(fork.save_state());
  EXPECT_EQ(result_fingerprint(fork), result_fingerprint(fork2));
}

}  // namespace
}  // namespace gdisim
