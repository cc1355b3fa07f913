// Plain-text scenario loader: the simulator-inputs file format.
//
// GDISim is pitched as an operator tool (thesis Fig 1-1); operators describe
// their infrastructure in a small declarative format instead of C++:
//
//   # comments with '#'
//   tick 0.02
//   seed 42
//   master HQ
//
//   datacenter HQ
//     switch 40                 # Gbps
//     san 2 24 15000            # controllers disks rpm
//     tier app 2 4 32           # kind servers cores ram_gb
//     tier db 1 8 64
//     tier fs 1 4 16
//   end
//
//   link HQ BRANCH 0.155 40 0.2         # gbps latency_ms allocated_fraction
//   backup_link HQ OTHER 0.045 80 0.2   # exists but unused by routing
//
//   population CAD@BRANCH BRANCH CAD 20   # name dc app peak_clients
//     hours 8 17                          # optional business window (GMT)
//     think 30                            # mean think time, seconds
//     size 25                             # file size, MB
//   end
//
//   synchrep HQ 900          # home_dc interval_seconds
//   indexbuild HQ 300        # home_dc delay_seconds
//   growth HQ 2000           # peak MB/h (business-hours shaped)
//
// Unknown directives are errors (typos should not silently change runs).
// Numbers are whole tokens and finite ("0.02s", "nan" and "inf" are errors),
// counts and the seed are non-negative integers, and every value is
// range-checked where it is read; each error reads `file:line: ... 'token'`.
#pragma once

#include <iosfwd>
#include <string>

#include "config/scenarios.h"

namespace gdisim {

/// Parses a scenario description. Throws std::invalid_argument on malformed
/// input; messages use the editor-friendly "<source>:<line>: ..." form and
/// quote the offending token.
///
/// `scale` multiplies the declared population peaks and growth rates
/// (clamped so every population keeps at least one client). Hardware stays
/// exactly as declared — the file is the operator's inventory; only the
/// offered load is scaled. Must be > 0.
Scenario load_scenario(std::istream& is, const std::string& source = "<stream>",
                       double scale = 1.0);

/// Convenience: load from a file path (errors carry the path as the source).
Scenario load_scenario_file(const std::string& path, double scale = 1.0);

}  // namespace gdisim
