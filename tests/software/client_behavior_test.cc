// Client behaviour extensions (thesis §9.2.1): session scripts and think
// time models, exercised on the validation micro-infrastructure.
#include <gtest/gtest.h>

#include "config/scenarios.h"

namespace gdisim {
namespace {

struct ClientWorld {
  Scenario scenario;
  std::unique_ptr<SimulationLoop> loop;

  explicit ClientWorld(ClientPopulationConfig cfg) {
    ValidationOptions opt;
    opt.stop_launch_s = 0.0;  // no validation series; we add our own clients
    scenario = make_validation_scenario(opt);
    const TickClock clock(scenario.tick_seconds);
    cfg.dc = scenario.master_dc;
    scenario.populations.push_back(std::make_unique<ClientPopulation>(
        cfg, *scenario.catalog, *scenario.ctx, clock));
    loop = std::make_unique<SimulationLoop>(SimLoopConfig{scenario.tick_seconds, 0});
    scenario.register_with(*loop);
  }

  ClientPopulation& clients() { return *scenario.populations.back(); }
};

ClientPopulationConfig base_config() {
  ClientPopulationConfig cfg;
  cfg.name = "CAD@test";
  cfg.curve = WorkloadCurve::constant(4.0);
  cfg.mix = OperationMix::uniform({"CAD.LOGIN", "CAD.FILTER"});
  cfg.think_time_mean_s = 2.0;
  cfg.file_size_mb = 5.0;
  cfg.seed = 11;
  return cfg;
}

TEST(ClientBehavior, ThinkTimeBeyondTheTickRangeMeansOneLaunchPerClient) {
  // A think time too long for the tick range is "never": each of the four
  // clients runs one operation and then thinks for good, instead of a
  // wrapped ready tick relaunching it at once.
  for (ThinkTimeModel model : {ThinkTimeModel::kFixed, ThinkTimeModel::kExponential}) {
    ClientPopulationConfig cfg = base_config();
    cfg.think_time_mean_s = 1e300;
    cfg.think_model = model;
    ClientWorld world(cfg);
    std::size_t launches = 0;
    world.clients().set_launch_recorder(
        [&launches](double, const std::string&, DcId, DcId, double) { ++launches; });
    world.loop->run_for_seconds(600.0);
    EXPECT_EQ(launches, 4u);
    EXPECT_EQ(world.clients().completed_operations(), 4u);
  }
}

TEST(ClientBehavior, SessionScriptFollowsOrder) {
  ClientPopulationConfig cfg = base_config();
  cfg.behavior = ClientBehavior::kSessionScript;
  cfg.session_script = {"CAD.LOGIN", "CAD.TEXT-SEARCH", "CAD.FILTER"};
  cfg.curve = WorkloadCurve::constant(1.0);  // one client => strict order
  ClientWorld world(cfg);
  world.loop->run_for_seconds(60.0);

  const auto& stats = world.clients().stats();
  ASSERT_TRUE(stats.count("CAD.LOGIN"));
  ASSERT_TRUE(stats.count("CAD.TEXT-SEARCH"));
  ASSERT_TRUE(stats.count("CAD.FILTER"));
  const auto login = stats.at("CAD.LOGIN").count;
  const auto search = stats.at("CAD.TEXT-SEARCH").count;
  const auto filter = stats.at("CAD.FILTER").count;
  // Strict rotation: counts differ by at most one.
  EXPECT_LE(login - filter, 1u);
  EXPECT_LE(login - search, 1u);
  EXPECT_GE(login, 2u);
}

TEST(ClientBehavior, ScriptedClientsAreStaggered) {
  ClientPopulationConfig cfg = base_config();
  cfg.behavior = ClientBehavior::kSessionScript;
  cfg.session_script = {"CAD.LOGIN", "CAD.FILTER"};
  cfg.curve = WorkloadCurve::constant(8.0);
  ClientWorld world(cfg);
  world.loop->run_for_seconds(10.0);
  // With staggering, both script positions launch in the first wave.
  const auto& stats = world.clients().stats();
  EXPECT_TRUE(stats.count("CAD.LOGIN"));
  EXPECT_TRUE(stats.count("CAD.FILTER"));
}

TEST(ClientBehavior, EmptyScriptRejected) {
  ClientPopulationConfig cfg = base_config();
  cfg.behavior = ClientBehavior::kSessionScript;
  EXPECT_THROW(ClientWorld world(cfg), std::invalid_argument);
}

TEST(ClientBehavior, FixedThinkTimeIsClockwork) {
  ClientPopulationConfig cfg = base_config();
  cfg.think_model = ThinkTimeModel::kFixed;
  cfg.curve = WorkloadCurve::constant(1.0);
  cfg.mix = OperationMix::uniform({"CAD.LOGIN"});
  cfg.think_time_mean_s = 5.0;
  ClientWorld world(cfg);
  world.loop->run_for_seconds(120.0);
  // Cycle = LOGIN duration (~2.1 s) + 5 s think => ~16-17 ops in 120 s.
  const auto count = world.clients().stats().at("CAD.LOGIN").count;
  EXPECT_GE(count, 14u);
  EXPECT_LE(count, 19u);
}

TEST(ClientBehavior, MixedModeUsesAllOperations) {
  ClientPopulationConfig cfg = base_config();
  cfg.curve = WorkloadCurve::constant(6.0);
  ClientWorld world(cfg);
  world.loop->run_for_seconds(90.0);
  const auto& stats = world.clients().stats();
  EXPECT_TRUE(stats.count("CAD.LOGIN"));
  EXPECT_TRUE(stats.count("CAD.FILTER"));
}

TEST(ClientBehavior, ActiveNeverExceedsLoggedIn) {
  ClientPopulationConfig cfg = base_config();
  cfg.curve = WorkloadCurve::constant(5.0);
  ClientWorld world(cfg);
  for (int i = 0; i < 4000; ++i) {
    world.loop->step();
    EXPECT_LE(world.clients().active(), world.clients().logged_in() + 1);
  }
}

}  // namespace
}  // namespace gdisim
