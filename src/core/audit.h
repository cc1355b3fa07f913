// Runtime invariant auditor (DESIGN.md "Correctness tooling").
//
// A compile-time-gated referee for the invariants the determinism and
// conservation claims rest on: every job spawned is eventually completed
// (spawned = completed + live), work amounts and occupancies never go
// negative, each agent observes a strictly increasing tick clock, and the
// multiset of inbox drains folds into an order-independent hash that must
// match across scheduler modes.
//
// The auditor is enabled by the GDISIM_AUDIT compile definition (CMake
// option GDISIM_AUDIT / the `audit` preset). In release builds every
// GDISIM_AUDIT_* macro expands to `((void)0)` and no auditor state exists,
// so the hooks are zero-cost. All counters are process-global atomics: the
// simulator is serial, but the Ch. 4 benches (bench/ch4/) run the queues
// they instrument on engine threads, and the checks only need monotone
// counts, not per-component attribution.
//
// Failure policy: a tripped invariant calls the installed failure handler
// with a description. The default handler prints the message and aborts;
// tests install a throwing/recording handler via set_failure_handler to
// assert that specific corruptions are caught.
#pragma once

#include <cstdint>

namespace gdisim::audit {

/// Conservation ledger categories. One spawned/completed counter pair each.
enum class Category : unsigned {
  kFcfsJob = 0,   ///< jobs through FcfsMultiServerQueue
  kPsJob,         ///< jobs through PsQueue
  kRaidJob,       ///< RAID disk-array jobs (dacc, then the per-disk fork-join)
  kSanJob,        ///< SAN disk-array jobs
  kOperation,     ///< OperationInstance cascades
  kCount
};

const char* category_name(Category c);

/// Snapshot of the auditor state (audit builds; zeroed otherwise).
struct Report {
  std::uint64_t spawned[static_cast<unsigned>(Category::kCount)] = {};
  std::uint64_t completed[static_cast<unsigned>(Category::kCount)] = {};
  /// Commutative (xor-folded) hash over every inbox drain. Equal multisets
  /// of drains produce equal hashes regardless of drain order, so two runs
  /// of the same workload must report the same value at the same tick
  /// whatever the scheduler mode.
  std::uint64_t drain_hash = 0;
  /// Invariant violations observed (nonzero only when a non-aborting
  /// failure handler is installed).
  std::uint64_t failures = 0;

  std::uint64_t live(Category c) const {
    const auto i = static_cast<unsigned>(c);
    return spawned[i] - completed[i];
  }
};

using FailureHandler = void (*)(const char* message);

#if defined(GDISIM_AUDIT) && GDISIM_AUDIT
#define GDISIM_AUDIT_ENABLED 1
#else
#define GDISIM_AUDIT_ENABLED 0
#endif

#if GDISIM_AUDIT_ENABLED

inline constexpr bool kEnabled = true;

/// Reports an invariant violation through the installed handler.
void fail(const char* message);

/// Installs a failure handler; returns the previous one. Passing nullptr
/// restores the default print-and-abort handler. Not thread-safe against
/// concurrent failures: install before the run starts.
FailureHandler set_failure_handler(FailureHandler handler);

void job_spawned(Category c);
/// Fails if the category would have more completions than spawns
/// (double-complete / completion of a job that was never spawned).
void job_completed(Category c);

void check(bool ok, const char* what);
void check_nonneg(double value, const char* what);

/// Folds one drain's hash into the global accumulator (xor: commutative,
/// so the result is independent of drain interleaving across threads).
void fold_drain(std::uint64_t h);
std::uint64_t drain_hash();

/// Fails unless spawned == completed for the category — call once the
/// simulation has fully drained (no operations in flight).
void check_drained(Category c, const char* what);

Report snapshot();
/// Clears all counters and the drain hash (test isolation).
void reset();

#else  // !GDISIM_AUDIT_ENABLED

inline constexpr bool kEnabled = false;

inline void fail(const char*) {}
inline FailureHandler set_failure_handler(FailureHandler) { return nullptr; }
inline void job_spawned(Category) {}
inline void job_completed(Category) {}
inline void check(bool, const char*) {}
inline void check_nonneg(double, const char*) {}
inline void fold_drain(std::uint64_t) {}
inline std::uint64_t drain_hash() { return 0; }
inline void check_drained(Category, const char*) {}
inline Report snapshot() { return {}; }
inline void reset() {}

#endif  // GDISIM_AUDIT_ENABLED

}  // namespace gdisim::audit

// Hook macros. In release builds they expand to `((void)0)` without
// evaluating their arguments, so instrumentation sites cost nothing.
#if GDISIM_AUDIT_ENABLED
#define GDISIM_AUDIT_JOB_SPAWNED(cat) ::gdisim::audit::job_spawned(cat)
#define GDISIM_AUDIT_JOB_COMPLETED(cat) ::gdisim::audit::job_completed(cat)
#define GDISIM_AUDIT_CHECK(cond, what) ::gdisim::audit::check((cond), (what))
#define GDISIM_AUDIT_NONNEG(value, what) ::gdisim::audit::check_nonneg((value), (what))
#define GDISIM_AUDIT_FOLD_DRAIN(hash) ::gdisim::audit::fold_drain(hash)
/// Per-agent clock monotonicity: the tick phase must observe strictly
/// increasing `now` values (Agent::audit_tick_signal).
#define GDISIM_AUDIT_AGENT_TICK(agent, now) (agent)->audit_tick_signal(now)
#else
#define GDISIM_AUDIT_JOB_SPAWNED(cat) ((void)0)
#define GDISIM_AUDIT_JOB_COMPLETED(cat) ((void)0)
#define GDISIM_AUDIT_CHECK(cond, what) ((void)0)
#define GDISIM_AUDIT_NONNEG(value, what) ((void)0)
#define GDISIM_AUDIT_FOLD_DRAIN(hash) ((void)0)
#define GDISIM_AUDIT_AGENT_TICK(agent, now) ((void)0)
#endif
