#include "software/replay.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "config/scenarios.h"
#include "core/sim_loop.h"
#include "hardware/component.h"

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
  // Values that six significant digits cannot hold must come back
  // bit-exact, or a saved trace replays different launch times and sizes.
  WorkloadTrace trace;
  trace.record(TraceEntry{1.5, "CAD.OPEN", 2, 0, 25.0, 0});
  trace.record(TraceEntry{3.0, "VIS.LOGIN", 1, kInvalidDc, 5.0, 0});
  trace.record(TraceEntry{12345.67, "CAD.SAVE", 0, 1, 23.456789, 0});
  trace.record(TraceEntry{86399.99, "PDM.EXPLORE", 1, kInvalidDc, 0.1 + 0.2, 0});
  trace.record(TraceEntry{1.0 / 3.0, "CAD.FILTER", 0, kInvalidDc, 1e-7, 0});
  trace.finalize();

  std::ostringstream os;
  trace.save(os);
  std::istringstream is(os.str());
  WorkloadTrace loaded = WorkloadTrace::load(is);
  ASSERT_EQ(loaded.size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const TraceEntry& want = trace.entries()[i];
    const TraceEntry& got = loaded.entries()[i];
    EXPECT_EQ(got.t_seconds, want.t_seconds) << i;
    EXPECT_EQ(got.op, want.op) << i;
    EXPECT_EQ(got.origin, want.origin) << i;
    EXPECT_EQ(got.owner, want.owner) << i;
    EXPECT_EQ(got.size_mb, want.size_mb) << i;
  }
}

TEST(WorkloadTrace, LoadRejectsGarbage) {
  std::istringstream empty("");
  EXPECT_THROW(WorkloadTrace::load(empty), std::invalid_argument);

  // Each bad row follows a good one, so its error names line 3.
  const struct {
    const char* row;
    const char* error;
  } cases[] = {
      {"not-a-number,OP,0,0,1", "line 3: t_seconds: bad value 'not-a-number'"},
      {"1.5abc,OP,0,0,1", "line 3: t_seconds: bad value '1.5abc'"},
      {"nan,OP,0,0,1", "line 3: t_seconds: bad value 'nan'"},
      {"-1,OP,0,0,1", "line 3: t_seconds: bad value '-1'"},
      {"1,,0,0,1", "line 3: op: bad value ''"},
      {"1,OP,-1,0,1", "line 3: origin: bad value '-1'"},
      {"1,OP,99999999999999999999,0,1", "line 3: origin: bad value '99999999999999999999'"},
      {"1,OP,0,-2,1", "line 3: owner: bad value '-2'"},
      {"1,OP,0,0,-5", "line 3: size_mb: bad value '-5'"},
      {"1,OP,0,0,inf", "line 3: size_mb: bad value 'inf'"},
      {"1,OP,0,0,1,extra", "line 3: expected 5 fields, got 6"},
      {"1,OP,0", "line 3: expected 5 fields, got 3"},
  };
  for (const auto& c : cases) {
    std::istringstream is(std::string("t_seconds,op,origin,owner,size_mb\n1,OP,0,-1,1\n") + c.row +
                          "\n");
    try {
      WorkloadTrace::load(is);
      ADD_FAILURE() << c.row << ": loaded";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()), c.error) << c.row;
    }
  }
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

  /// The launcher, then every hardware component in AgentId order and every
  /// server's memory occupancy, through one handler registry: the order a
  /// simulator snapshot uses for its software agents and hardware.
  void archive(StateArchive& ar) {
    HandlerRegistry reg;
    SimulationLoop* l = loop.get();
    reg.set_agent_resolver([l](AgentId id) { return l->agent(id); });
    std::vector<Server*> servers;
    for (DcId d = 0; d < scenario.topology->dc_count(); ++d) {
      for (unsigned k = 0; k < static_cast<unsigned>(TierKind::kCount); ++k) {
        Tier* tier = scenario.topology->dc(d).tier(static_cast<TierKind>(k));
        for (std::size_t s = 0; tier != nullptr && s < tier->server_count(); ++s) {
          servers.push_back(&tier->server(s));
        }
      }
    }
    for (Server* s : servers) reg.bind_memory(s->cpu().id(), &s->memory());
    loop->archive_state(ar);
    launcher->archive_state(ar, reg);
    for (AgentId id = 0; id < loop->agent_count(); ++id) {
      if (auto* c = dynamic_cast<Component*>(loop->agent(id))) c->archive_state(ar, reg);
    }
    for (Server* s : servers) s->memory().archive_state(ar);
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

TEST(TraceLauncher, RejectsEntriesOutsideTheTopologyOrCatalog) {
  // The validation topology has one data center; a bad entry fails at
  // construction, naming the entry, instead of during the run.
  const struct {
    TraceEntry entry;
    const char* error;
  } cases[] = {
      {{2.0, "CAD.LOGIN", 7, kInvalidDc, 0.0, 0},
       "entry 1 (CAD.LOGIN at 2 s): origin 7 is not one of the topology's 1 data centers"},
      {{2.0, "CAD.LOGIN", 0, 3, 0.0, 0},
       "entry 1 (CAD.LOGIN at 2 s): owner 3 is not one of the topology's 1 data centers"},
      {{2.0, "CAD.NOPE", 0, kInvalidDc, 0.0, 0},
       "entry 1 (CAD.NOPE at 2 s): operation 'CAD.NOPE' is not in the catalog"},
  };
  for (const auto& c : cases) {
    WorkloadTrace trace;
    trace.record(TraceEntry{1.0, "CAD.LOGIN", 0, kInvalidDc, 0.0, 0});
    trace.record(c.entry);
    trace.finalize();
    try {
      ReplayWorld world(trace);
      ADD_FAILURE() << c.error << ": constructed";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(c.error), std::string::npos) << e.what();
    }
  }
}

TEST(ReplaySnapshot, MidFlightRoundTrip) {
  // Overlapping operations, several in flight at the checkpoint. The
  // restored replay re-saves the same bytes and finishes with the same
  // launches, completions and per-operation statistics.
  WorkloadTrace trace;
  const char* ops[] = {"CAD.OPEN", "CAD.LOGIN", "CAD.SAVE", "CAD.FILTER"};
  for (int i = 0; i < 24; ++i) {
    trace.record(TraceEntry{0.5 * i, ops[i % 4], 0, kInvalidDc, 10.0 + i, 0});
  }
  trace.finalize();

  ReplayWorld a(trace);
  a.loop->run_for_seconds(6.37);
  ASSERT_GT(a.launcher->in_flight(), 1u);
  ASSERT_LT(a.launcher->launched(), trace.size());
  StateArchive w(StateArchive::Mode::kWrite);
  a.archive(w);

  ReplayWorld b(trace);
  StateArchive r = StateArchive::reader(w.payload());
  b.archive(r);
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(b.launcher->launched(), a.launcher->launched());
  EXPECT_EQ(b.launcher->in_flight(), a.launcher->in_flight());
  StateArchive w2(StateArchive::Mode::kWrite);
  b.archive(w2);
  EXPECT_EQ(w.payload(), w2.payload());

  a.loop->run_for_seconds(400.0);
  b.loop->run_for_seconds(400.0);
  EXPECT_EQ(a.launcher->launched(), trace.size());
  EXPECT_EQ(a.launcher->completed(), trace.size());
  EXPECT_EQ(b.launcher->launched(), a.launcher->launched());
  EXPECT_EQ(b.launcher->completed(), a.launcher->completed());
  const auto& want = a.launcher->stats();
  const auto& got = b.launcher->stats();
  ASSERT_EQ(got.size(), want.size());
  for (const auto& [op, st] : want) {
    ASSERT_EQ(got.count(op), 1u) << op;
    const OpStats& g = got.at(op);
    EXPECT_EQ(g.count, st.count) << op;
    EXPECT_EQ(g.total_s, st.total_s) << op;
    EXPECT_EQ(g.min_s, st.min_s) << op;
    EXPECT_EQ(g.max_s, st.max_s) << op;
    EXPECT_EQ(g.sum_sq, st.sum_sq) << op;
  }
}

}  // namespace
}  // namespace gdisim
