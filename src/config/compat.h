// Snapshot/scenario compatibility descriptor (DESIGN.md §8).
//
// A snapshot is only restorable into a scenario with the *same structure*:
// same tick length, same agents in the same registration order, same
// population slot counts, same probe set. Rates, intervals and think times
// are deliberately absent — those are the knobs a warm-start fork perturbs.
//
// The descriptor is a list of human-readable lines ("agent 12 cpu/HQ/db0")
// plus an FNV-1a digest. The full lines travel in the snapshot header so a
// mismatch can be reported as a line-by-line diff instead of a bare hash.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace gdisim {

class Collector;
class SimulationLoop;
class StateArchive;
struct Scenario;

struct SnapshotCompat {
  std::vector<std::string> lines;

  /// FNV-1a over the lines (newline-separated).
  std::uint64_t digest() const;

  /// Describes the structural shape of a built simulation: tick, master DC,
  /// every registered agent (id + name), population slot counts, probe
  /// labels. The scheduler mode is *not* structural — a snapshot restores
  /// across it.
  static SnapshotCompat describe(Scenario& scenario, const SimulationLoop& loop,
                                 const Collector& collector);

  /// Line-by-line diff; empty string when the two descriptors match.
  static std::string diff(const SnapshotCompat& saved, const SnapshotCompat& current);

  void archive_state(StateArchive& ar);
};

}  // namespace gdisim
