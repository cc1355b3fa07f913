// Result fingerprint: a single stable 64-bit digest of a finished run.
//
// Folds everything the simulator promises to reproduce bit-identically —
// per-operation response statistics, background-job ledgers, and every
// collected time series — into one FNV-1a hash. Two runs of the same
// scenario and seed must produce the same fingerprint regardless of
// scheduler mode or checkpoint/restore; CI's determinism smoke step diffs
// the active-set fingerprint against a --dense-sweep run (tools/ci.sh
// smoke).
//
// Doubles are folded via their IEEE-754 bit patterns (std::bit_cast), so
// the digest detects any bit-level divergence, not just "close enough".
#pragma once

#include <cstdint>

namespace gdisim {

class GdiSimulator;

/// Digest of the run's observable results. Deterministic iteration only:
/// populations/launchers in scenario order, stats in std::map (name) order,
/// ledger runs in record order, series in probe-registration order.
std::uint64_t result_fingerprint(GdiSimulator& sim);

}  // namespace gdisim
