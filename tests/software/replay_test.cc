#include "software/replay.h"

#include <gtest/gtest.h>

#include <sstream>

#include "config/scenarios.h"

namespace gdisim {
namespace {

TEST(WorkloadTrace, RecordAndFinalizeSorts) {
  WorkloadTrace trace;
  trace.record(TraceEntry{5.0, "B", 0, kInvalidDc, 1.0, 0});
  trace.record(TraceEntry{1.0, "A", 0, kInvalidDc, 1.0, 0});
  trace.record(TraceEntry{1.0, "A", 1, kInvalidDc, 1.0, 0});
  trace.finalize();
  ASSERT_EQ(trace.size(), 3u);
  EXPECT_DOUBLE_EQ(trace.entries()[0].t_seconds, 1.0);
  EXPECT_EQ(trace.entries()[0].origin, 0u);
  EXPECT_EQ(trace.entries()[1].origin, 1u);
  EXPECT_EQ(trace.entries()[2].op, "B");
}

TEST(WorkloadTrace, CsvRoundTrip) {
  WorkloadTrace trace;
  trace.record(TraceEntry{1.5, "CAD.OPEN", 2, 0, 25.0, 0});
  trace.record(TraceEntry{3.0, "VIS.LOGIN", 1, kInvalidDc, 5.0, 0});
  trace.finalize();

  std::ostringstream os;
  trace.save(os);
  std::istringstream is(os.str());
  WorkloadTrace loaded = WorkloadTrace::load(is);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded.entries()[0].op, "CAD.OPEN");
  EXPECT_EQ(loaded.entries()[0].owner, 0u);
  EXPECT_EQ(loaded.entries()[1].owner, kInvalidDc);
  EXPECT_DOUBLE_EQ(loaded.entries()[1].size_mb, 5.0);
}

TEST(WorkloadTrace, LoadRejectsGarbage) {
  std::istringstream empty("");
  EXPECT_THROW(WorkloadTrace::load(empty), std::invalid_argument);
  std::istringstream bad("header\nnot-a-number,OP,0,0,1\n");
  EXPECT_THROW(WorkloadTrace::load(bad), std::invalid_argument);
}

struct ReplayWorld {
  Scenario scenario;
  std::unique_ptr<SimulationLoop> loop;
  std::unique_ptr<TraceLauncher> launcher;

  explicit ReplayWorld(const WorkloadTrace& trace) {
    ValidationOptions opt;
    opt.stop_launch_s = 0.0;
    scenario = make_validation_scenario(opt);
    const TickClock clock(scenario.tick_seconds);
    launcher = std::make_unique<TraceLauncher>(trace, *scenario.catalog, *scenario.ctx, clock);
    loop = std::make_unique<SimulationLoop>(SimLoopConfig{scenario.tick_seconds, 0});
    scenario.register_with(*loop);
    loop->add_agent(launcher.get());
  }
};

TEST(TraceLauncher, ReplaysEntriesAtRecordedTimes) {
  WorkloadTrace trace;
  trace.record(TraceEntry{1.0, "CAD.LOGIN", 0, kInvalidDc, 0.0, 0});
  trace.record(TraceEntry{2.0, "CAD.FILTER", 0, kInvalidDc, 0.0, 0});
  trace.record(TraceEntry{30.0, "CAD.LOGIN", 0, kInvalidDc, 0.0, 0});
  trace.finalize();

  ReplayWorld world(trace);
  world.loop->run_for_seconds(10.0);
  EXPECT_EQ(world.launcher->launched(), 2u);  // the t=30 entry not yet due
  world.loop->run_for_seconds(40.0);
  EXPECT_EQ(world.launcher->launched(), 3u);
  EXPECT_EQ(world.launcher->completed(), 3u);
  EXPECT_EQ(world.launcher->stats().at("CAD.LOGIN").count, 2u);
  EXPECT_EQ(world.launcher->stats().at("CAD.FILTER").count, 1u);
}

TEST(TraceLauncher, RecordThenReplayReproducesOperationMix) {
  // Record a live population, then replay the trace on a fresh instance of
  // the same infrastructure: identical operation counts.
  WorkloadTrace trace;
  {
    ValidationOptions opt;
    opt.stop_launch_s = 0.0;
    Scenario scenario = make_validation_scenario(opt);
    const TickClock clock(scenario.tick_seconds);
    ClientPopulationConfig cfg;
    cfg.name = "CAD@rec";
    cfg.dc = scenario.master_dc;
    cfg.curve = WorkloadCurve::constant(3.0);
    cfg.mix = OperationMix::uniform({"CAD.LOGIN", "CAD.FILTER"});
    cfg.think_time_mean_s = 3.0;
    cfg.seed = 5;
    auto pop = std::make_unique<ClientPopulation>(cfg, *scenario.catalog, *scenario.ctx, clock);
    pop->set_launch_recorder(trace.recorder());
    SimulationLoop loop({scenario.tick_seconds, 0});
    scenario.register_with(loop);
    loop.add_agent(pop.get());
    loop.run_for_seconds(60.0);
  }
  trace.finalize();
  ASSERT_GT(trace.size(), 5u);

  ReplayWorld world(trace);
  world.loop->run_for_seconds(90.0);
  EXPECT_EQ(world.launcher->launched(), trace.size());
  EXPECT_EQ(world.launcher->completed(), trace.size());
}

}  // namespace
}  // namespace gdisim
