// Property test for the active-set scheduler (DESIGN.md "Scheduler"): the
// dense sweep is the reference oracle, and a run under kActiveSet must
// produce bit-identical results — every collector series, operation stats,
// and background-run ledgers — because quiescent agents contribute exactly
// nothing to any observable. Only the "scheduler/" series differ by design
// (they measure the scheduler itself). The utilization window of every
// hardware station, collected or not, is also read at points off the
// collection grid: parked stations fold their sub-tick work lazily, and a
// fold that went missing would show there first.
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
  /// take_window_utilization of every station at each off-grid stop.
  std::vector<std::vector<double>> station_windows;
};

/// Runs `sim` to each absolute time in `stops` (all off the collection grid,
/// where the window span is nonzero) and reads every station's window there.
std::vector<std::vector<double>> read_station_windows(GdiSimulator& sim,
                                                      const std::vector<double>& stops) {
  std::vector<std::vector<double>> out;
  for (double t : stops) {
    sim.run_until_seconds(t);
    const Tick now = sim.loop().now();
    EXPECT_NE(now % sim.loop().config().collect_every, 0) << "stop " << t << " s is on the grid";
    std::vector<double> windows;
    for (Component* c : sim.scenario().topology->all_components()) {
      windows.push_back(c->take_window_utilization(now));
    }
    out.push_back(std::move(windows));
  }
  return out;
}

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
  ASSERT_EQ(dense.station_windows.size(), active.station_windows.size());
  for (std::size_t k = 0; k < dense.station_windows.size(); ++k) {
    ASSERT_EQ(dense.station_windows[k].size(), active.station_windows[k].size());
    std::size_t differ = 0;
    bool busy = false;
    for (std::size_t c = 0; c < dense.station_windows[k].size(); ++c) {
      if (dense.station_windows[k][c] != active.station_windows[k][c]) ++differ;
      busy = busy || dense.station_windows[k][c] > 0.0;
    }
    EXPECT_EQ(differ, 0u) << "station windows differing at stop " << k << " of "
                          << dense.station_windows[k].size();
    EXPECT_TRUE(busy) << "no station worked before stop " << k;
  }
}

RunResult run_validation(SchedulerMode mode) {
  ValidationOptions opt;
  opt.stop_launch_s = 4.0 * 60.0;
  Scenario scenario = make_validation_scenario(opt);
  SimulatorConfig cfg;
  cfg.collect_every_s = 6.0;
  cfg.scheduler = mode;
  GdiSimulator sim(std::move(scenario), cfg);
  auto windows = read_station_windows(sim, {61.37, 127.01, 190.53, 250.19});
  sim.run_until_seconds(5.0 * 60.0);
  RunResult out = summarize(sim);
  out.station_windows = std::move(windows);
  return out;
}

RunResult run_consolidated(SchedulerMode mode, double minutes) {
  GlobalOptions opt;
  opt.scale = 0.02;
  Scenario scenario = make_consolidated_scenario(opt);
  SimulatorConfig cfg;
  cfg.collect_every_s = 30.0;
  cfg.scheduler = mode;
  GdiSimulator sim(std::move(scenario), cfg);
  auto windows = read_station_windows(sim, {151.35, 301.65, 452.05, 603.15});
  sim.run_until_seconds(minutes * 60.0);
  RunResult out = summarize(sim);
  out.station_windows = std::move(windows);
  return out;
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
