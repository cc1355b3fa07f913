// Network link: M/M/1/k PS with constant propagation latency (thesis
// Figure 3-6, right). Bandwidth is shared uniformly among up to k
// simultaneous transfers; latency is added to each task's processing time.
#pragma once

#include "hardware/component.h"
#include "queueing/ps_queue.h"

namespace gdisim {

struct LinkSpec {
  double bandwidth_bps = 1e9;
  double latency_seconds = 0.0;
  std::size_t max_concurrent = 0;  ///< k; 0 = unlimited
  /// Fraction of raw bandwidth allocated to the simulated applications
  /// (Ch. 6 requirement: 20% of WAN capacity). Utilization is reported
  /// against the *allocated* capacity.
  double allocated_fraction = 1.0;
};

class LinkComponent final : public SingleQueueStation<PsQueue> {
 public:
  explicit LinkComponent(const LinkSpec& spec)
      : SingleQueueStation(spec.bandwidth_bps * spec.allocated_fraction,
                           spec.bandwidth_bps * spec.allocated_fraction, spec.max_concurrent,
                           spec.latency_seconds),
        spec_(spec) {}

  const LinkSpec& spec() const { return spec_; }
  std::size_t active_transfers() const { return queue_.active(); }
  std::uint64_t completed_transfers() const { return queue_.completed_jobs(); }

 private:
  LinkSpec spec_;  // ARCHIVE-TRANSIENT: hardware spec; construction-time configuration
};

}  // namespace gdisim
