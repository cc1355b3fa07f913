// Redundant Array of Identical Disks (thesis §3.4.2, Figure 3-7): the disk
// array with the controller cache Q_dacc as its only front stage.
#pragma once

#include "hardware/disk_array.h"

namespace gdisim {

struct RaidSpec {
  unsigned disks = 2;
  double dacc_rate_Bps = 4e9 / 8.0;   ///< disk array controller, bytes/s
  double dacc_hit_rate = 0.0;
  double dcc_rate_Bps = 3e9 / 8.0;    ///< per-disk controller, bytes/s
  double dcc_hit_rate = 0.0;
  double hdd_rate_Bps = 150e6;        ///< drive, bytes/s
};

class RaidComponent final : public DiskArrayComponent {
 public:
  RaidComponent(const RaidSpec& spec, Rng rng)
      : DiskArrayComponent(audit::Category::kRaidJob, {spec.dacc_rate_Bps},
                           /*dacc_stage=*/0, spec.dacc_hit_rate, spec.disks, spec.dcc_rate_Bps,
                           spec.dcc_hit_rate, spec.hdd_rate_Bps, rng),
        spec_(spec) {}

  const RaidSpec& spec() const { return spec_; }

 private:
  RaidSpec spec_;  // ARCHIVE-TRANSIENT: hardware spec; construction-time configuration
};

}  // namespace gdisim
