// GdiSimulator: the top-level facade (thesis Figure 3-1).
//
// Takes a Scenario (software applications + background jobs + data centers +
// global topology) and produces the output estimates: response times per
// operation and location, CPU/memory utilization per tier, and network
// utilization per link — all sampled by the collector.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "config/scenarios.h"
#include "core/sim_loop.h"
#include "metrics/collector.h"
#include "metrics/report.h"

namespace gdisim {

class StateArchive;

struct SimulatorConfig {
  /// Sampling period for the measurement-collection signal (thesis Ch. 5
  /// samples every six seconds).
  double collect_every_s = 6.0;
  /// Must be 0: every run is serial, and the constructor rejects any other
  /// value. Kept because perfbench/gdibench.cc sets it.
  std::size_t threads = 0;
  /// Active-set scheduling by default; kDenseSweep is the A/B oracle
  /// (DESIGN.md "Scheduler").
  SchedulerMode scheduler = SchedulerMode::kActiveSet;
};

class GdiSimulator {
 public:
  GdiSimulator(Scenario scenario, SimulatorConfig config = {});

  /// Advances the simulation by the given number of simulated seconds.
  void run_for(double seconds);

  /// Runs until the given *absolute* simulated time (no-op if already past).
  /// Restored runs use this so a checkpoint→restore→continue sequence lands
  /// on exactly the same end tick as the uninterrupted run.
  void run_until_seconds(double seconds);

  /// Saves the complete simulation state to `path` (DESIGN.md §8). Safe at
  /// any point where no agent phase is executing — i.e. between run calls.
  void checkpoint(const std::string& path);

  /// Replaces this simulator's state with the snapshot at `path`. The
  /// simulator must have been built from a structurally identical scenario
  /// (rates/intervals may differ — warm-start forking); throws
  /// std::runtime_error with a line diff otherwise. Decode errors are
  /// reported as `path:byte N: why` (the scenario loader's diagnostic
  /// shape) and leave the simulator in its pre-restore state.
  void restore(const std::string& path);

  /// In-memory snapshot/restore (scenario forking without touching disk).
  /// By default a payload that fails mid-decode is rolled back: the live
  /// simulator is restored to its pre-call state before the exception
  /// propagates. Pass `rollback_on_error = false` to skip the backup
  /// snapshot in trusted hot paths (warm-start fork loops replaying a
  /// payload this process just produced).
  std::vector<std::uint8_t> save_state();
  void load_state(const std::vector<std::uint8_t>& payload,
                  bool rollback_on_error = true);

  double now_seconds() const { return loop_->now_seconds(); }
  Scenario& scenario() { return scenario_; }
  Collector& collector() { return *collector_; }
  SimulationLoop& loop() { return *loop_; }

 private:
  void load_archive(StateArchive& ar, bool rollback_on_error);

  Scenario scenario_;
  SimulatorConfig config_;
  std::unique_ptr<SimulationLoop> loop_;
  std::unique_ptr<Collector> collector_;
};

}  // namespace gdisim
