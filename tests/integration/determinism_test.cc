// GDISim guarantees identical simulation results for identical inputs
// (DESIGN.md §4): a repeated run in the same process reproduces the first
// one exactly, and a different seed changes the outcome. Scheduler-mode and
// checkpoint/restore equivalence live in active_set_equivalence_test.cc and
// snapshot_equivalence_test.cc.
#include <gtest/gtest.h>

#include <map>

#include "sim/gdisim.h"

namespace gdisim {
namespace {

struct RunSummary {
  std::map<std::string, std::uint64_t> op_counts;
  std::map<std::string, double> op_total_s;
  std::uint64_t completed_series = 0;
};

RunSummary run_validation() {
  ValidationOptions opt;
  opt.stop_launch_s = 4.0 * 60.0;
  Scenario scenario = make_validation_scenario(opt);
  GdiSimulator sim(std::move(scenario));
  sim.run_for(5.0 * 60.0);

  RunSummary out;
  for (auto& l : sim.scenario().launchers) {
    out.completed_series += l->series_completed();
    for (const auto& [op, stats] : l->stats()) {
      out.op_counts[op] += stats.count;
      out.op_total_s[op] += stats.total_s;
    }
  }
  return out;
}

void expect_same(const RunSummary& a, const RunSummary& b) {
  EXPECT_EQ(a.completed_series, b.completed_series);
  ASSERT_EQ(a.op_counts.size(), b.op_counts.size());
  for (const auto& [op, count] : a.op_counts) {
    ASSERT_TRUE(b.op_counts.count(op)) << op;
    EXPECT_EQ(count, b.op_counts.at(op)) << op;
    EXPECT_NEAR(a.op_total_s.at(op), b.op_total_s.at(op), 1e-6) << op;
  }
}

TEST(Determinism, RepeatedRunsIdentical) {
  expect_same(run_validation(), run_validation());
}

TEST(Determinism, DifferentSeedsDiverge) {
  ValidationOptions a;
  a.seed = 1;
  a.stop_launch_s = 3.0 * 60.0;
  ValidationOptions b = a;
  b.seed = 2;

  auto run = [](const ValidationOptions& opt) {
    Scenario scenario = make_validation_scenario(opt);
    GdiSimulator sim(std::move(scenario), SimulatorConfig{6.0});
    sim.run_for(4.0 * 60.0);
    double total = 0.0;
    for (auto& l : sim.scenario().launchers) {
      for (const auto& [op, stats] : l->stats()) total += stats.total_s;
    }
    return total;
  };
  // Series launches are deterministic clockwork, but the size jitter and
  // internal streams differ; durations should not be bit-identical.
  EXPECT_NE(run(a), run(b));
}

}  // namespace
}  // namespace gdisim
