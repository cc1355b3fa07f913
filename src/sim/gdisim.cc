#include "sim/gdisim.h"

#include <cmath>
#include <stdexcept>
#include <string>

#include "core/archive.h"
#include "sim/snapshot.h"

namespace gdisim {

GdiSimulator::GdiSimulator(Scenario scenario, SimulatorConfig config)
    : scenario_(std::move(scenario)), config_(config) {
  if (scenario_.tick_seconds <= 0.0) {
    throw std::invalid_argument("GdiSimulator: scenario has no tick length");
  }
  if (config_.threads != 0) {
    throw std::invalid_argument("GdiSimulator: threads = " + std::to_string(config_.threads) +
                                ", but runs are serial (threads must be 0)");
  }

  SimLoopConfig loop_cfg;
  loop_cfg.tick_seconds = scenario_.tick_seconds;
  const double collect_ticks = config_.collect_every_s / scenario_.tick_seconds;
  if (std::isnan(collect_ticks) || whole_ticks(collect_ticks) == kNeverTick) {
    throw std::invalid_argument("GdiSimulator: a collection interval of " +
                                std::to_string(config_.collect_every_s) +
                                " s is outside the tick range");
  }
  loop_cfg.collect_every = std::max<Tick>(1, whole_ticks(collect_ticks));
  loop_cfg.scheduler = config_.scheduler;
  loop_ = std::make_unique<SimulationLoop>(loop_cfg);

  scenario_.register_with(*loop_);

  collector_ = std::make_unique<Collector>(scenario_.tick_seconds);
  install_standard_probes(*collector_, scenario_);
  // Scheduler introspection (not a simulation output): mean active-set size
  // per iteration since the previous sample. Under kDenseSweep this equals
  // the agent count.
  SimulationLoop* loop = loop_.get();
  collector_->add_probe("scheduler/active_agents",
                        [loop](Tick) { return loop->take_window_active_mean(); });
  Collector* collector = collector_.get();
  loop_->set_collect_callback([collector](Tick now) { collector->collect(now); });
}

void GdiSimulator::run_for(double seconds) {
  loop_->run_for_seconds(seconds);
}

void GdiSimulator::run_until_seconds(double seconds) {
  const Tick end = loop_->clock().to_ticks(seconds);
  if (end == kNeverTick) {
    throw std::invalid_argument("GdiSimulator: a horizon of " + std::to_string(seconds) +
                                " s is beyond the tick range");
  }
  if (end > loop_->now()) loop_->run_until(end);
}

void GdiSimulator::checkpoint(const std::string& path) {
  StateArchive ar(StateArchive::Mode::kWrite);
  archive_simulation(ar, scenario_, *loop_, *collector_);
  ar.write_to_file(path);
}

void GdiSimulator::restore(const std::string& path) {
  StateArchive ar = StateArchive::read_file(path);
  try {
    load_archive(ar);
  } catch (const std::exception& e) {
    const std::string why = e.what();
    // read_file diagnostics are already `path:byte N: why`; decode errors
    // from inside the payload gain the same prefix with the stream cursor.
    if (why.rfind(path, 0) == 0) throw;
    throw std::runtime_error(path + ":byte " + std::to_string(ar.cursor()) + ": " + why);
  }
}

std::vector<std::uint8_t> GdiSimulator::save_state() {
  StateArchive ar(StateArchive::Mode::kWrite);
  archive_simulation(ar, scenario_, *loop_, *collector_);
  return ar.payload();
}

void GdiSimulator::load_state(const std::vector<std::uint8_t>& payload) {
  StateArchive ar = StateArchive::reader(payload);
  load_archive(ar);
}

void GdiSimulator::load_archive(StateArchive& ar) {
  // Transactional load: a payload that fails mid-decode (truncated stream,
  // flipped bytes past the checksum, structural mismatch) must not leave the
  // simulator half-mutated. Back up first, roll back on any throw; the
  // rollback decode cannot fail because this simulator just produced it.
  std::vector<std::uint8_t> backup = save_state();
  try {
    archive_simulation(ar, scenario_, *loop_, *collector_);
  } catch (...) {
    StateArchive undo = StateArchive::reader(std::move(backup));
    archive_simulation(undo, scenario_, *loop_, *collector_);
    throw;
  }
}

}  // namespace gdisim
