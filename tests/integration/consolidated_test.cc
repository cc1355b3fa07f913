// Integration tests on the Ch. 6 consolidated scenario at reduced scale:
// the qualitative claims of the evaluation must hold in-sim.
#include <gtest/gtest.h>

#include "sim/gdisim.h"

namespace gdisim {
namespace {

/// One shared run covering the 12:00-16:00 GMT peak (expensive — build once).
class ConsolidatedPeak : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    GlobalOptions opt;
    opt.scale = 0.04;
    Scenario scenario = make_consolidated_scenario(opt);
    sim_ = new GdiSimulator(std::move(scenario), SimulatorConfig{60.0});
    sim_->run_for(12.0 * 3600.0);
    sim_->run_for(4.0 * 3600.0);
  }
  static void TearDownTestSuite() {
    delete sim_;
    sim_ = nullptr;
  }

  static GdiSimulator* sim_;
  static constexpr double kT0 = 12.0 * 3600.0;
  static constexpr double kT1 = 16.0 * 3600.0;
};

GdiSimulator* ConsolidatedPeak::sim_ = nullptr;

TEST_F(ConsolidatedPeak, EveryRegionCompletesOperations) {
  for (const char* dc : {"NA", "EU", "SA"}) {  // in business hours during the window
    ClientPopulation* pop = sim_->scenario().population(std::string("CAD@") + dc);
    ASSERT_NE(pop, nullptr) << dc;
    EXPECT_GT(pop->completed_operations(), 10u) << dc;
  }
}

TEST_F(ConsolidatedPeak, MasterAppTierIsTheHottest) {
  Collector& c = sim_->collector();
  const double app = c.find("cpu/NA/app")->mean_between(kT0, kT1);
  EXPECT_GT(app, c.find("cpu/NA/db")->mean_between(kT0, kT1));
  EXPECT_GT(app, c.find("cpu/NA/idx")->mean_between(kT0, kT1));
  EXPECT_GT(app, c.find("cpu/EU/fs")->mean_between(kT0, kT1));
  EXPECT_GT(app, 0.25);
  EXPECT_LT(app, 0.98);
}

TEST_F(ConsolidatedPeak, BackupLinksStayIdle) {
  EXPECT_DOUBLE_EQ(sim_->collector().find("net/EU->AFR")->max_value(), 0.0);
  EXPECT_DOUBLE_EQ(sim_->collector().find("net/EU->AS1")->max_value(), 0.0);
}

TEST_F(ConsolidatedPeak, WanLinksCarryTraffic) {
  for (const char* link : {"net/NA->EU", "net/NA->AS1", "net/AS1->AUS"}) {
    EXPECT_GT(sim_->collector().find(link)->mean_between(kT0, kT1), 0.02) << link;
  }
}

TEST_F(ConsolidatedPeak, FileServingIsLocal) {
  // EU's fs tier serves EU clients during the window; AUS is asleep, so its
  // fs tier is near idle (Figure 6-13).
  const double eu_fs = sim_->collector().find("cpu/EU/fs")->mean_between(kT0, kT1);
  const double aus_fs = sim_->collector().find("cpu/AUS/fs")->mean_between(kT0, kT1);
  EXPECT_GT(eu_fs, 2.0 * aus_fs);
}

TEST_F(ConsolidatedPeak, RemoteRegionsPayLatencyOnChattyOpsOnly) {
  ClientPopulation* na = sim_->scenario().population("CAD@NA");
  ClientPopulation* sa = sim_->scenario().population("CAD@SA");
  ASSERT_NE(na, nullptr);
  ASSERT_NE(sa, nullptr);
  const auto& na_stats = na->stats();
  const auto& sa_stats = sa->stats();
  if (na_stats.count("CAD.EXPLORE") && sa_stats.count("CAD.EXPLORE")) {
    EXPECT_GT(sa_stats.at("CAD.EXPLORE").mean(), na_stats.at("CAD.EXPLORE").mean() * 1.15);
  }
  if (na_stats.count("CAD.OPEN") && sa_stats.count("CAD.OPEN")) {
    EXPECT_NEAR(sa_stats.at("CAD.OPEN").mean(), na_stats.at("CAD.OPEN").mean(),
                0.15 * na_stats.at("CAD.OPEN").mean());
  }
}

TEST_F(ConsolidatedPeak, BackgroundJobsMakeProgress) {
  SynchRepDaemon* sr = sim_->scenario().synchreps.at(0).get();
  IndexBuildDaemon* ib = sim_->scenario().indexbuilds.at(0).get();
  EXPECT_GE(sr->ledger().runs().size(), 40u);  // 16 h / 15 min
  EXPECT_GE(ib->ledger().runs().size(), 10u);
  EXPECT_GT(sr->max_staleness_s(), 15.0 * 60.0);  // at least the interval
  // Volumes move: pull+push recorded at the peak runs.
  double max_mb = 0.0;
  for (const auto& run : sr->ledger().runs()) max_mb = std::max(max_mb, run.total_mb);
  EXPECT_GT(max_mb, 10.0);
}

TEST_F(ConsolidatedPeak, MemoryModelStaysFarBelowPools) {
  // §5.3.3: workload-driven memory is orders of magnitude below capacity.
  const double app_mem = sim_->collector().find("mem/NA/app")->max_value();
  const double capacity =
      sim_->scenario().dc("NA").tier(TierKind::App)->server(0).memory().spec().capacity_bytes;
  EXPECT_LT(app_mem, 0.2 * capacity);
  EXPECT_GT(app_mem, 0.0);
}

}  // namespace
}  // namespace gdisim
