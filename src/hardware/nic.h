// Network Interface Card: M/M/1 FCFS over bits (thesis Figure 3-6, left).
#pragma once

#include "hardware/component.h"
#include "queueing/fcfs_queue.h"

namespace gdisim {

struct NicSpec {
  double rate_bps = 1e9;  ///< bits per second
};

class NicComponent final : public SingleQueueStation<FcfsMultiServerQueue> {
 public:
  explicit NicComponent(const NicSpec& spec)
      : SingleQueueStation(spec.rate_bps, 1u, spec.rate_bps), spec_(spec) {}

  const NicSpec& spec() const { return spec_; }

 private:
  NicSpec spec_;  // ARCHIVE-TRANSIENT: hardware spec; construction-time configuration
};

}  // namespace gdisim
