// Per-phase tick profiler (DESIGN.md §10).
//
// A compile-time-gated wall-clock bucketizer backing perf claims with a tool
// instead of ad-hoc perf runs: instrumented scopes attribute elapsed time to
// one of five buckets — route construction (build_route), hardware queueing
// (the per-tick advance of station disciplines), inbox drains, population
// launch scans, and background daemons (synch-rep, index-build).
//
// Enabled by the GDISIM_TICK_PROFILE compile definition (CMake option
// GDISIM_TICK_PROFILE). In normal builds every GDISIM_TICK_PROF_* macro
// expands to `((void)0)` and no profiler state exists, so instrumentation
// sites are zero-cost — the same discipline as GDISIM_AUDIT. Accumulators
// are process-global relaxed atomics: per the single-core bench discipline
// the profiler runs single-threaded, and under threads the relaxed adds only
// smear a diagnostic, never a simulation result.
#pragma once

#include <cstdint>
#include <string>

namespace gdisim::tickprof {

enum class Bucket : unsigned {
  kRouteBuild = 0,  ///< OperationInstance::build_route
  kQueueing,        ///< Component::advance_tick (discipline serve loops)
  kInbox,           ///< Inbox drains
  kWake,            ///< population launch scans
  kBackground,      ///< synch-rep and index-build daemons
  kCount
};

const char* bucket_name(Bucket b);

#if defined(GDISIM_TICK_PROFILE) && GDISIM_TICK_PROFILE
#define GDISIM_TICK_PROF_ENABLED 1
#else
#define GDISIM_TICK_PROF_ENABLED 0
#endif

#if GDISIM_TICK_PROF_ENABLED

inline constexpr bool kEnabled = true;

/// Adds `ns` wall-clock nanoseconds (and one scope entry) to a bucket.
void add(Bucket b, std::uint64_t ns);

/// Nanoseconds accumulated in a bucket so far.
std::uint64_t nanos(Bucket b);
/// Instrumented scope entries per bucket.
std::uint64_t entries(Bucket b);

/// Clears all accumulators (test isolation / between bench repetitions).
void reset();

/// Serializes {"<bucket>_ns": ..., "<bucket>_entries": ..., ...} to `path`.
/// Returns false (and leaves no file) when the file cannot be written.
bool dump_json(const std::string& path);

/// Current wall-clock in ns; isolated here so instrumentation sites carry a
/// single audited clock read. NOLINT reason lives at the definition.
std::uint64_t now_ns();

/// RAII attribution of one scope to a bucket.
class Scope {
 public:
  explicit Scope(Bucket b) : bucket_(b), start_(now_ns()) {}
  ~Scope() { add(bucket_, now_ns() - start_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Bucket bucket_;
  std::uint64_t start_;
};

#else  // !GDISIM_TICK_PROF_ENABLED

inline constexpr bool kEnabled = false;

inline void add(Bucket, std::uint64_t) {}
inline std::uint64_t nanos(Bucket) { return 0; }
inline std::uint64_t entries(Bucket) { return 0; }
inline void reset() {}
inline bool dump_json(const std::string&) { return false; }

#endif  // GDISIM_TICK_PROF_ENABLED

}  // namespace gdisim::tickprof

// Instrumentation macros. Zero-cost in normal builds (no clock reads, no
// profiler state); in GDISIM_TICK_PROFILE builds each expands to an RAII
// scope attributing its wall-clock span to the named bucket.
#if GDISIM_TICK_PROF_ENABLED
#define GDISIM_TICK_PROF_SCOPE(bucket) \
  ::gdisim::tickprof::Scope gdisim_tick_prof_scope_##__LINE__(bucket)
#else
#define GDISIM_TICK_PROF_SCOPE(bucket) ((void)0)
#endif
