#include <gtest/gtest.h>

#include "background/data_growth.h"
#include "background/file_catalog.h"
#include "background/indexbuild.h"
#include "background/ownership.h"
#include "background/synchrep.h"
#include "config/scenarios.h"

namespace gdisim {
namespace {

TEST(DataGrowth, ConstantRateIntegration) {
  DataGrowthModel g;
  g.set_curve(0, WorkloadCurve::constant(120.0));  // 120 MB/h
  EXPECT_NEAR(g.generated_mb(0, 0.0, 1.0), 120.0, 1e-6);
  EXPECT_NEAR(g.generated_mb(0, 2.0, 2.5), 60.0, 1e-6);
  EXPECT_NEAR(g.generated_mb(0, 5.0, 5.0), 0.0, 1e-12);
}

TEST(DataGrowth, UnknownDcIsZero) {
  DataGrowthModel g;
  EXPECT_DOUBLE_EQ(g.generated_mb(7, 0.0, 1.0), 0.0);
}

TEST(DataGrowth, BusinessCurveIntegratesPositively) {
  DataGrowthModel g;
  g.set_curve(0, WorkloadCurve::business_hours(1000.0, 10.0, 8.0, 17.0));
  const double off_hours = g.generated_mb(0, 0.0, 4.0);
  const double peak_hours = g.generated_mb(0, 11.0, 15.0);
  EXPECT_GT(peak_hours, 5.0 * off_hours);
}

TEST(AccessPatternMatrix, SingleMasterAssignsAllToMaster) {
  AccessPatternMatrix apm = AccessPatternMatrix::single_master(4, 2);
  for (DcId origin = 0; origin < 4; ++origin) {
    EXPECT_DOUBLE_EQ(apm.fraction(origin, 2), 1.0);
    EXPECT_EQ(apm.sample_owner(origin, 0.5), 2u);
  }
}

TEST(AccessPatternMatrix, NormalizesPercentageRows) {
  AccessPatternMatrix apm({{80.0, 20.0}, {50.0, 50.0}});
  EXPECT_NEAR(apm.fraction(0, 0), 0.8, 1e-12);
  EXPECT_NEAR(apm.fraction(0, 1), 0.2, 1e-12);
  EXPECT_EQ(apm.sample_owner(0, 0.5), 0u);
  EXPECT_EQ(apm.sample_owner(0, 0.9), 1u);
}

TEST(AccessPatternMatrix, RejectsBadMatrices) {
  EXPECT_THROW(AccessPatternMatrix(std::vector<std::vector<double>>{{1.0, 0.0}}),
               std::invalid_argument);  // not square
  EXPECT_THROW(AccessPatternMatrix(std::vector<std::vector<double>>{{0.0}}),
               std::invalid_argument);  // zero row
  EXPECT_THROW(AccessPatternMatrix(std::vector<std::vector<double>>{{-1.0}}),
               std::invalid_argument);
}

TEST(AccessPatternMatrix, MultimasterTableRowsSumToOne) {
  AccessPatternMatrix apm = multimaster_apm();
  ASSERT_EQ(apm.dc_count(), 7u);
  for (DcId origin = 0; origin < 7; ++origin) {
    double total = 0.0;
    for (DcId owner = 0; owner < 7; ++owner) total += apm.fraction(origin, owner);
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
  // Table 7.2 headline facts: NA accesses are mostly NA-owned; EU mostly EU.
  EXPECT_GT(apm.fraction(0, 0), 0.8);
  EXPECT_GT(apm.fraction(1, 1), 0.8);
  // Nobody owns AS2-satellite data.
  for (DcId origin = 0; origin < 7; ++origin) EXPECT_DOUBLE_EQ(apm.fraction(origin, 6), 0.0);
}

TEST(FreshnessLedger, ExposureCombinesIntervalAndDuration) {
  FreshnessLedger ledger;
  BackgroundRunRecord rec;
  rec.cover_from_hour = 10.0;
  rec.cover_to_hour = 10.25;  // 15-minute interval
  rec.duration_s = 16.0 * 60.0;
  ledger.record(rec);
  EXPECT_NEAR(ledger.max_exposure_s(), 31.0 * 60.0, 1e-6);
  EXPECT_NEAR(ledger.max_duration_s(), 16.0 * 60.0, 1e-6);
}

/// Micro world to drive the daemons for a simulated stretch.
struct DaemonWorld {
  Scenario scenario;
  std::unique_ptr<SimulationLoop> loop;

  explicit DaemonWorld(bool multimaster = false) {
    GlobalOptions opt;
    opt.scale = 0.02;  // tiny
    opt.seed = 5;
    scenario = multimaster ? make_multimaster_scenario(opt) : make_consolidated_scenario(opt);
    loop = std::make_unique<SimulationLoop>(SimLoopConfig{scenario.tick_seconds, 0});
    scenario.register_with(*loop);
  }
};

TEST(SynchRepDaemon, LaunchesAtConfiguredInterval) {
  DaemonWorld world;
  SynchRepDaemon* sr = world.scenario.synchreps.at(0).get();
  // Run one hour of simulated time starting at 13:00 GMT equivalent: the
  // scenario starts at t=0 (midnight); runs still launch every interval.
  world.loop->run_for_seconds(46.0 * 60.0);
  // Launches at t=0, 15, 30, 45 min => at least 3 completed or in flight.
  EXPECT_GE(sr->ledger().runs().size() + sr->runs_in_flight(), 3u);
}

TEST(SynchRepDaemon, RecordsVolumesFromGrowthModel) {
  DaemonWorld world;
  SynchRepDaemon* sr = world.scenario.synchreps.at(0).get();
  world.loop->run_for_seconds(40.0 * 60.0);
  ASSERT_GE(sr->ledger().runs().size(), 1u);
  // The first run covers [0, 0) and is a heartbeat; later runs cover 15 min
  // of (off-peak) growth and must report non-negative volumes.
  for (const auto& run : sr->ledger().runs()) {
    EXPECT_GE(run.total_mb, 0.0);
    for (const auto& [dc, mb] : run.pull_mb) EXPECT_GT(mb, 0.0);
    for (const auto& [dc, mb] : run.push_mb) EXPECT_GT(mb, 0.0);
  }
}

TEST(IndexBuildDaemon, SingleRunInFlight) {
  DaemonWorld world;
  IndexBuildDaemon* ib = world.scenario.indexbuilds.at(0).get();
  for (int i = 0; i < 20000; ++i) {
    world.loop->step();
    EXPECT_LE(ib->runs_in_flight(), 1u);
  }
}

TEST(IndexBuildDaemon, RelaunchesAfterDelay) {
  DaemonWorld world;
  IndexBuildDaemon* ib = world.scenario.indexbuilds.at(0).get();
  world.loop->run_for_seconds(35.0 * 60.0);
  // Delay-after-completion of 5 min + short runs => several runs in 35 min.
  EXPECT_GE(ib->ledger().runs().size(), 2u);
}

TEST(Multimaster, EveryMasterRunsItsOwnDaemons) {
  DaemonWorld world(/*multimaster=*/true);
  EXPECT_EQ(world.scenario.synchreps.size(), 6u);
  EXPECT_EQ(world.scenario.indexbuilds.size(), 6u);
  world.loop->run_for_seconds(20.0 * 60.0);
  for (auto& sr : world.scenario.synchreps) {
    EXPECT_GE(sr->ledger().runs().size() + sr->runs_in_flight(), 1u);
  }
}

TEST(Multimaster, PerDaemonVolumesSmallerThanSingleMaster) {
  // Ch. 7 headline: each master moves only its owned subset.
  GlobalOptions opt;
  opt.scale = 0.02;
  Scenario cons = make_consolidated_scenario(opt);
  Scenario mm = make_multimaster_scenario(opt);
  const double h0 = 13.0, h1 = 13.25;
  double single_total = 0.0, mm_na_total = 0.0;
  for (DcId d = 0; d < 7; ++d) {
    single_total += cons.growth.generated_mb(d, h0, h1);
    mm_na_total +=
        mm.growth.generated_mb(d, h0, h1) * owned_growth_fraction(mm.apm, d, 0);
  }
  EXPECT_LT(mm_na_total, 0.7 * single_total);
  EXPECT_GT(mm_na_total, 0.2 * single_total);
}

}  // namespace
}  // namespace gdisim
