// Client population behaviour (iid operation mix, exponential think times,
// the logged-in waterline), exercised on the validation micro-infrastructure.
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
  ClientPopulationConfig cfg = base_config();
  cfg.think_time_mean_s = 1e300;
  ClientWorld world(cfg);
  std::size_t launches = 0;
  world.clients().set_launch_recorder(
      [&launches](double, const std::string&, DcId, DcId, double) { ++launches; });
  world.loop->run_for_seconds(600.0);
  EXPECT_EQ(launches, 4u);
  EXPECT_EQ(world.clients().completed_operations(), 4u);
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
