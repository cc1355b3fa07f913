// Integration tests on the Ch. 7 multiple-master scenario, including the
// per-file staleness tracker.
#include <gtest/gtest.h>

#include "sim/gdisim.h"

namespace gdisim {
namespace {

class MultimasterPeak : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    GlobalOptions opt;
    opt.scale = 0.04;
    Scenario scenario = make_multimaster_scenario(opt);

    // Attach the per-file staleness tracker (thesis §9.2.3) to every
    // master's SYNCHREP daemon.
    tracker_ = new FileTracker(scenario.growth, scenario.apm, {0, 1, 2, 3, 4, 5, 6},
                               scenario.master_dc, 99);
    for (auto& sr : scenario.synchreps) sr->set_file_tracker(tracker_);

    sim_ = new GdiSimulator(std::move(scenario), SimulatorConfig{60.0});
    sim_->run_for(12.0 * 3600.0);
    sim_->run_for(4.0 * 3600.0);
  }
  static void TearDownTestSuite() {
    delete sim_;
    delete tracker_;
    sim_ = nullptr;
    tracker_ = nullptr;
  }

  static GdiSimulator* sim_;
  static FileTracker* tracker_;
  static constexpr double kT0 = 12.0 * 3600.0;
  static constexpr double kT1 = 16.0 * 3600.0;
};

GdiSimulator* MultimasterPeak::sim_ = nullptr;
FileTracker* MultimasterPeak::tracker_ = nullptr;

TEST_F(MultimasterPeak, EuMasterServesRealLoad) {
  // Per Table 7.2 the EU master owns the largest slice of global accesses.
  Collector& c = sim_->collector();
  EXPECT_GT(c.find("cpu/EU/app")->mean_between(kT0, kT1), 0.10);
  EXPECT_GT(c.find("cpu/EU/db")->mean_between(kT0, kT1), 0.08);
}

TEST_F(MultimasterPeak, SmallMastersSeeLittleTraffic) {
  // AFR owns ~0.3% of global accesses — its app tier should be near idle
  // relative to NA/EU.
  Collector& c = sim_->collector();
  EXPECT_LT(c.find("cpu/AFR/app")->mean_between(kT0, kT1),
            0.5 * c.find("cpu/EU/app")->mean_between(kT0, kT1));
}

TEST_F(MultimasterPeak, EverySynchRepDaemonRuns) {
  for (auto& sr : sim_->scenario().synchreps) {
    EXPECT_GE(sr->ledger().runs().size(), 30u) << sr->name();
  }
}

TEST_F(MultimasterPeak, NaMovesLessDataThanTheWholeWorld) {
  // Ch. 7 headline: per-owner volume < total generated volume.
  double na_total = 0.0;
  for (const auto& run : sim_->scenario().synchrep_at(0)->ledger().runs()) {
    na_total += run.total_mb;
  }
  double world_total = 0.0;
  for (DcId d = 0; d < 7; ++d) {
    world_total += sim_->scenario().growth.generated_mb(d, 0.0, 16.0);
  }
  EXPECT_LT(na_total, 0.7 * world_total);
  EXPECT_GT(na_total, 0.1 * world_total);
}

TEST_F(MultimasterPeak, FileTrackerObservesStaleness) {
  EXPECT_GT(tracker_->total_files(), 50u);  // scale 0.04 => ~70 files over 16 h
  const StalenessDistribution pooled = tracker_->pooled();
  // Staleness at a 15-minute interval: mean within (0, interval + max run].
  EXPECT_GT(pooled.mean_s(), 60.0);
  EXPECT_LT(pooled.mean_s(), 45.0 * 60.0);
  EXPECT_GE(pooled.max_s(), pooled.percentile_s(0.95) - StalenessDistribution::kBinSeconds);
  // NA and EU both own files.
  EXPECT_GT(tracker_->staleness(0).count(), 0u);
  EXPECT_GT(tracker_->staleness(1).count(), 0u);
}

TEST_F(MultimasterPeak, OwnerRoutingSpreadsAppTraffic) {
  // In the consolidated scenario all app work lands on NA; here at least
  // NA and EU both serve significant app load.
  Collector& c = sim_->collector();
  const double na = c.find("cpu/NA/app")->mean_between(kT0, kT1);
  const double eu = c.find("cpu/EU/app")->mean_between(kT0, kT1);
  EXPECT_GT(na, 0.05);
  EXPECT_GT(eu, 0.05);
}

TEST_F(MultimasterPeak, IndexConsistencyIsEventualPerOwner) {
  // Six INDEXBUILD daemons run independently — each at most one in flight.
  for (auto& ib : sim_->scenario().indexbuilds) {
    EXPECT_LE(ib->runs_in_flight(), 1u) << ib->name();
    EXPECT_GE(ib->ledger().runs().size(), 5u) << ib->name();
  }
}

}  // namespace
}  // namespace gdisim
