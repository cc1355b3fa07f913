// Network switch: M/M/1 FCFS over bits (thesis Figure 3-6, center).
// Typically an order of magnitude faster than a NIC.
#pragma once

#include "hardware/component.h"
#include "queueing/fcfs_queue.h"

namespace gdisim {

struct SwitchSpec {
  double rate_bps = 1e10;  ///< bits per second
};

class SwitchComponent final : public SingleQueueStation<FcfsMultiServerQueue> {
 public:
  explicit SwitchComponent(const SwitchSpec& spec)
      : SingleQueueStation(spec.rate_bps, 1u, spec.rate_bps), spec_(spec) {}

  const SwitchSpec& spec() const { return spec_; }

 private:
  SwitchSpec spec_;  // ARCHIVE-TRANSIENT: hardware spec; construction-time configuration
};

}  // namespace gdisim
