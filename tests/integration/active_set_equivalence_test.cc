// Property test for the active-set scheduler (DESIGN.md "Scheduler"): the
// dense sweep is the reference oracle, and a run under kActiveSet must
// produce bit-identical results — every collector series, operation stats,
// and background-run ledgers — because quiescent agents contribute exactly
// nothing to any observable. Only the "scheduler/" series differ by design
// (they measure the scheduler itself).
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "sim/gdisim.h"

namespace gdisim {
namespace {

struct RunResult {
  std::vector<std::string> labels;
  std::vector<std::vector<double>> series;
  std::map<std::string, std::uint64_t> op_counts;
  std::map<std::string, double> op_total_s;
  std::vector<double> sr_durations;
  std::vector<double> ib_durations;
  double sr_max_staleness = 0.0;
  double occupancy = 1.0;
};

RunResult summarize(GdiSimulator& sim) {
  RunResult out;
  for (std::size_t i = 0; i < sim.collector().probe_count(); ++i) {
    const TimeSeries& s = sim.collector().series(i);
    out.labels.push_back(s.label());
    out.series.push_back(s.values());
  }
  for (auto& p : sim.scenario().populations) {
    for (const auto& [op, stats] : p->stats()) {
      out.op_counts[op] += stats.count;
      out.op_total_s[op] += stats.total_s;
    }
  }
  for (auto& l : sim.scenario().launchers) {
    for (const auto& [op, stats] : l->stats()) {
      out.op_counts[op] += stats.count;
      out.op_total_s[op] += stats.total_s;
    }
  }
  for (auto& sr : sim.scenario().synchreps) {
    out.sr_max_staleness += sr->max_staleness_s();
    for (const auto& run : sr->ledger().runs()) out.sr_durations.push_back(run.duration_s);
  }
  for (auto& ib : sim.scenario().indexbuilds) {
    for (const auto& run : ib->ledger().runs()) out.ib_durations.push_back(run.duration_s);
  }
  out.occupancy = sim.loop().scheduler_stats().occupancy();
  return out;
}

bool scheduler_series(const std::string& label) {
  return label.rfind("scheduler/", 0) == 0;
}

void expect_identical(const RunResult& dense, const RunResult& active) {
  ASSERT_EQ(dense.labels.size(), active.labels.size());
  for (std::size_t i = 0; i < dense.labels.size(); ++i) {
    ASSERT_EQ(dense.labels[i], active.labels[i]);
    if (scheduler_series(dense.labels[i])) continue;  // differs by design
    ASSERT_EQ(dense.series[i].size(), active.series[i].size()) << dense.labels[i];
    for (std::size_t j = 0; j < dense.series[i].size(); ++j) {
      EXPECT_EQ(dense.series[i][j], active.series[i][j])
          << dense.labels[i] << " sample " << j;
    }
  }
  ASSERT_EQ(dense.op_counts.size(), active.op_counts.size());
  for (const auto& [op, count] : dense.op_counts) {
    ASSERT_TRUE(active.op_counts.count(op)) << op;
    EXPECT_EQ(count, active.op_counts.at(op)) << op;
    EXPECT_EQ(dense.op_total_s.at(op), active.op_total_s.at(op)) << op;
  }
  EXPECT_EQ(dense.sr_durations, active.sr_durations);
  EXPECT_EQ(dense.ib_durations, active.ib_durations);
  EXPECT_EQ(dense.sr_max_staleness, active.sr_max_staleness);
}

RunResult run_validation(SchedulerMode mode) {
  ValidationOptions opt;
  opt.stop_launch_s = 4.0 * 60.0;
  Scenario scenario = make_validation_scenario(opt);
  SimulatorConfig cfg;
  cfg.collect_every_s = 6.0;
  cfg.scheduler = mode;
  GdiSimulator sim(std::move(scenario), cfg);
  sim.run_for(5.0 * 60.0);
  return summarize(sim);
}

RunResult run_consolidated(SchedulerMode mode, double minutes) {
  GlobalOptions opt;
  opt.scale = 0.02;
  Scenario scenario = make_consolidated_scenario(opt);
  SimulatorConfig cfg;
  cfg.collect_every_s = 30.0;
  cfg.scheduler = mode;
  GdiSimulator sim(std::move(scenario), cfg);
  sim.run_for(minutes * 60.0);
  return summarize(sim);
}

TEST(ActiveSetEquivalence, ValidationScenarioSerial) {
  expect_identical(run_validation(SchedulerMode::kDenseSweep),
                   run_validation(SchedulerMode::kActiveSet));
}

TEST(ActiveSetEquivalence, ConsolidatedScenarioSerial) {
  const RunResult dense = run_consolidated(SchedulerMode::kDenseSweep, 12.0);
  const RunResult active = run_consolidated(SchedulerMode::kActiveSet, 12.0);
  expect_identical(dense, active);
  // The whole point: the consolidated scenario has long quiet stretches, so
  // the active set must actually be sparse, not just correct.
  EXPECT_LT(active.occupancy, 0.9);
  EXPECT_DOUBLE_EQ(dense.occupancy, 1.0);
}

}  // namespace
}  // namespace gdisim
