#include "sim/gdisim.h"

#include <gtest/gtest.h>

#include <limits>

namespace gdisim {
namespace {

Scenario small_validation() {
  ValidationOptions opt;
  opt.stop_launch_s = 60.0;
  return make_validation_scenario(opt);
}

TEST(GdiSimulator, RejectsScenarioWithoutTick) {
  Scenario empty;
  EXPECT_THROW(GdiSimulator sim(std::move(empty)), std::invalid_argument);
}

TEST(GdiSimulator, RunForAdvancesSimulatedTime) {
  GdiSimulator sim(small_validation(), SimulatorConfig{6.0});
  EXPECT_DOUBLE_EQ(sim.now_seconds(), 0.0);
  sim.run_for(10.0);
  EXPECT_NEAR(sim.now_seconds(), 10.0, sim.scenario().tick_seconds);
  sim.run_for(5.0);
  EXPECT_NEAR(sim.now_seconds(), 15.0, sim.scenario().tick_seconds);
}

TEST(GdiSimulator, CollectorSamplesAtConfiguredPeriod) {
  SimulatorConfig cfg;
  cfg.collect_every_s = 2.0;
  GdiSimulator sim(small_validation(), cfg);
  sim.run_for(20.0);
  const TimeSeries* s = sim.collector().find("cpu/NA/app");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->size(), 10u);
  EXPECT_NEAR(s->samples()[1].t_seconds - s->samples()[0].t_seconds, 2.0, 1e-9);
}

TEST(GdiSimulator, StandardProbesInstalled) {
  GdiSimulator sim(small_validation(), SimulatorConfig{6.0});
  for (const char* label : {"cpu/NA/app", "cpu/NA/db", "cpu/NA/fs", "cpu/NA/idx",
                            "mem/NA/app", "clients/logged_in", "clients/active"}) {
    EXPECT_NE(sim.collector().find(label), nullptr) << label;
  }
}

TEST(GdiSimulator, AgentsRegisteredWithLoop) {
  GdiSimulator sim(small_validation(), SimulatorConfig{6.0});
  // Components of the validation DC + three series launchers.
  EXPECT_GT(sim.loop().agent_count(), 20u);
  EXPECT_EQ(sim.loop().agent_count(),
            sim.scenario().topology->all_components().size() +
                sim.scenario().launchers.size());
}

TEST(GdiSimulator, WorkIsActuallySimulated) {
  GdiSimulator sim(small_validation(), SimulatorConfig{6.0});
  sim.run_for(4.0 * 60.0);
  std::uint64_t completed = 0;
  for (auto& l : sim.scenario().launchers) {
    for (const auto& [op, stats] : l->stats()) completed += stats.count;
  }
  EXPECT_GT(completed, 10u);
  EXPECT_GT(sim.collector().find("cpu/NA/app")->max_value(), 0.01);
}

TEST(GdiSimulator, RejectsIntervalsBeyondTheTickRange) {
  // A collection interval or horizon past 2^63 ticks cannot be reached:
  // refused, never cast into a wrapped tick count.
  for (double every : {1e300, std::numeric_limits<double>::infinity(),
                       std::numeric_limits<double>::quiet_NaN()}) {
    SimulatorConfig cfg;
    cfg.collect_every_s = every;
    EXPECT_THROW(GdiSimulator sim(small_validation(), cfg), std::invalid_argument) << every;
  }
  GdiSimulator sim(small_validation());
  EXPECT_THROW(sim.run_until_seconds(1e300), std::invalid_argument);
  EXPECT_DOUBLE_EQ(sim.now_seconds(), 0.0);
}

TEST(GdiSimulator, RejectsNonzeroThreads) {
  // Runs are serial by construction; a thread count is a configuration error,
  // not a hint to ignore.
  SimulatorConfig cfg;
  cfg.threads = 1;
  EXPECT_THROW(GdiSimulator sim(small_validation(), cfg), std::invalid_argument);
}

}  // namespace
}  // namespace gdisim
