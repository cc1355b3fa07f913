// Whole-simulation snapshot orchestrator (DESIGN.md §8).
//
// Byte-stream order (identical on save and load):
//   compat header → loop state → software agents in registration order
//   (populations, series launchers, synchreps, indexbuilds — these bind
//   their live operation instances into the handler registry) → hardware
//   components in AgentId order (their queues encode completion-handler
//   pointers through the registry) → per-server memory occupancy →
//   topology failure state → collector series.
//
// Software agents come before hardware so that every handler key a
// component writes or resolves is already bound, in both directions.
#pragma once

#include "core/archive.h"

namespace gdisim {

class Collector;
class SimulationLoop;
struct Scenario;

/// Serializes (write mode) or restores (read mode) the complete mutable
/// state of a built simulation. On read the scenario/loop/collector must be
/// freshly constructed with the same structure as the one that saved the
/// snapshot; a structural mismatch throws std::runtime_error carrying a
/// line-by-line diff (rates/intervals may differ — that is warm-start
/// forking).
void archive_simulation(StateArchive& ar, Scenario& scenario, SimulationLoop& loop,
                        Collector& collector);

}  // namespace gdisim
