// Memory model: caching + occupancy (thesis §3.4.2, Figure 3-5).
//
// Memory is the one component *not* modeled as a queue. It addresses two
// effects: (1) cache hits bypass the I/O queues entirely, and (2) occupancy
// — a message holds its Rm bytes allocated for the duration of its CPU/I/O
// processing. Occupancy is kept in integer milli-bytes, so allocations and
// releases cancel exactly whatever order the allocating agents run in.
//
// §5.3.3 of the thesis finds that real servers exhibit a *flat* memory
// profile dominated by kernel/runtime pools; `pool_reserved_bytes` models
// that floor so the bench for §5.3.3 can reproduce both behaviours.
#pragma once

#include <cstdint>

#include "core/archive.h"
#include "core/audit.h"
#include "core/rng.h"

namespace gdisim {

struct MemorySpec {
  double capacity_bytes = 32.0 * (1ull << 30);
  double cache_hit_rate = 0.0;  ///< probability an Rd access is served from RAM
  double pool_reserved_bytes = 0.0;  ///< OS/runtime pool floor (§5.3.3)
};

class MemoryComponent {
 public:
  explicit MemoryComponent(const MemorySpec& spec) : spec_(spec) {}

  /// Cache decision. The uniform variate is supplied by the *caller's* RNG
  /// stream (the operation instance), so the outcome does not depend on the
  /// order in which agents route.
  bool storage_access_hits_cache(double uniform01) const {
    return uniform01 < spec_.cache_hit_rate;
  }

  void allocate(double bytes) {
    GDISIM_AUDIT_NONNEG(bytes, "MemoryComponent: negative allocation");
    occupied_milli_ += to_milli(bytes);
  }
  void release(double bytes) {
    GDISIM_AUDIT_NONNEG(bytes, "MemoryComponent: negative release");
    occupied_milli_ -= to_milli(bytes);
    GDISIM_AUDIT_CHECK(occupied_milli_ >= 0,
                       "MemoryComponent: occupancy underflow (released more than allocated)");
  }

  /// Workload-driven occupancy only (the model of §3.4.2).
  double occupied_bytes() const {
    return static_cast<double>(occupied_milli_) / 1000.0;
  }

  /// Occupancy including the pool floor (the physical behaviour of §5.3.3).
  double observed_bytes() const {
    const double dynamic = occupied_bytes();
    return dynamic > spec_.pool_reserved_bytes ? dynamic : spec_.pool_reserved_bytes;
  }

  double utilization() const { return occupied_bytes() / spec_.capacity_bytes; }
  const MemorySpec& spec() const { return spec_; }

  /// Snapshot round trip: occupancy only — the spec is configuration. The
  /// held-allocation bookkeeping lives with the operation instances, which
  /// re-reference this component by its server's CPU AgentId.
  void archive_state(StateArchive& ar) {
    ar.section("memory");
    ar.i64(occupied_milli_);
  }

 private:
  static std::int64_t to_milli(double bytes) { return static_cast<std::int64_t>(bytes * 1000.0); }

  MemorySpec spec_;  // ARCHIVE-TRANSIENT: hardware spec; construction-time configuration
  std::int64_t occupied_milli_ = 0;
};

}  // namespace gdisim
