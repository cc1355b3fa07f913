// Storage Area Network (thesis §3.4.2, Figure 3-8): the disk array behind
// a fiber-channel switch Q_fcsw, with the arbitrated loop Q_fcal between
// the controller cache Q_dacc and the disks. A dacc hit bypasses the loop
// and the disks. A SAN is shared by the tiers of a data center, so unlike a
// RAID it typically serves many servers at once.
#pragma once

#include "hardware/disk_array.h"

namespace gdisim {

struct SanSpec {
  unsigned disks = 20;
  double fcsw_rate_Bps = 8e9 / 8.0;   ///< fiber channel switch, bytes/s
  double dacc_rate_Bps = 4e9 / 8.0;   ///< disk array controller cache
  double dacc_hit_rate = 0.0;
  double fcal_rate_Bps = 4e9 / 8.0;   ///< fiber channel arbitrated loop
  double dcc_rate_Bps = 3e9 / 8.0;
  double dcc_hit_rate = 0.0;
  double hdd_rate_Bps = 150e6;
};

class SanComponent final : public DiskArrayComponent {
 public:
  SanComponent(const SanSpec& spec, Rng rng)
      : DiskArrayComponent(audit::Category::kSanJob,
                           {spec.fcsw_rate_Bps, spec.dacc_rate_Bps, spec.fcal_rate_Bps},
                           /*dacc_stage=*/1, spec.dacc_hit_rate, spec.disks, spec.dcc_rate_Bps,
                           spec.dcc_hit_rate, spec.hdd_rate_Bps, rng),
        spec_(spec) {}

  const SanSpec& spec() const { return spec_; }

 private:
  SanSpec spec_;  // ARCHIVE-TRANSIENT: hardware spec; construction-time configuration
};

}  // namespace gdisim
