// Canned scenarios reproducing the thesis evaluation setups:
//   * make_validation_scenario   — Ch. 5 downscaled single-DC infrastructure
//                                  with the three series experiments
//   * make_consolidated_scenario — Ch. 6 six-continent consolidated
//                                  infrastructure, single master (D_NA)
//   * make_multimaster_scenario  — Ch. 7 multiple-master infrastructure with
//                                  data ownership per Table 7.2
//
// Populations and data volumes can be scaled down uniformly (hardware is
// scaled with them) to keep bench runtimes reasonable; utilization *shapes*
// are preserved. EXPERIMENTS.md records the scales used for each figure.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "background/indexbuild.h"
#include "background/synchrep.h"
#include "config/builder.h"
#include "metrics/collector.h"
#include "software/client.h"

namespace gdisim {

/// Tick lengths the scenario factories assume; the simulation loop driving a
/// scenario must be built with the matching tick (launchers capture it).
inline constexpr double kValidationTickSeconds = 0.010;
inline constexpr double kGlobalTickSeconds = 0.050;

struct Scenario {
  /// Tick length the scenario's launchers were built with.
  double tick_seconds = 0.0;  // ARCHIVE-TRANSIENT: build-time structure; SnapshotCompat guards shape instead

  std::unique_ptr<Topology> topology;
  std::unique_ptr<OperationContext> ctx;  // ARCHIVE-TRANSIENT: stateless routing wiring built with the scenario
  std::unique_ptr<OperationCatalog> catalog;  // ARCHIVE-TRANSIENT: immutable operation specs built with the scenario
  DataGrowthModel growth;  // ARCHIVE-TRANSIENT: construction-time configuration
  AccessPatternMatrix apm;  // ARCHIVE-TRANSIENT: construction-time configuration
  DcId master_dc = 0;  // ARCHIVE-TRANSIENT: build-time structure; SnapshotCompat guards shape instead

  /// Population/hardware scale the scenario was built with (1.0 for
  /// unscaled/config-file scenarios unless a loader override was given).
  double scale = 1.0;  // ARCHIVE-TRANSIENT: build-time structure; SnapshotCompat guards shape instead

  std::vector<std::unique_ptr<ClientPopulation>> populations;
  std::vector<std::unique_ptr<SeriesLauncher>> launchers;
  std::vector<std::unique_ptr<SynchRepDaemon>> synchreps;
  std::vector<std::unique_ptr<IndexBuildDaemon>> indexbuilds;

  /// Registers every component and launcher agent with the loop.
  void register_with(SimulationLoop& loop);

  DataCenter& dc(const std::string& name) {
    return topology->dc(topology->find_dc(name));
  }
  ClientPopulation* population(const std::string& name);
  SynchRepDaemon* synchrep_at(DcId dc);
  IndexBuildDaemon* indexbuild_at(DcId dc);

  /// Sum of logged-in / active clients across populations (optionally
  /// filtered by application prefix and/or data center).
  std::size_t total_logged_in(const std::string& app_prefix = "", DcId dc = kInvalidDc) const;
  std::size_t total_active(const std::string& app_prefix = "", DcId dc = kInvalidDc) const;
};

/// Installs the standard probe set (tier CPU %, link %, client counts) on a
/// collector. Returns probe labels installed.
std::vector<std::string> install_standard_probes(Collector& collector, Scenario& scenario);

// ---------------------------------------------------------------------------
// Chapter 5: validation.

struct ValidationOptions {
  /// 1 => 15-36-60s, 2 => 12-29-48s, 3 => 10-24-40s series intervals.
  int experiment = 1;
  /// Stop launching new series after this much simulated time.
  double stop_launch_s = 35.0 * 60.0;
  std::uint64_t seed = 42;
  /// Memory cache-hit rate applied to every tier (ablation knob; the
  /// validation experiments of Ch. 5 ran with 0.30).
  double mem_cache_hit = 0.30;
};

Scenario make_validation_scenario(const ValidationOptions& options);

/// The three series the validation workload uses (Light / Average / Heavy).
std::vector<SeriesOp> validation_series(double size_mb);

// ---------------------------------------------------------------------------
// Chapters 6/7: global infrastructure.

struct GlobalOptions {
  /// Scale on client populations AND tier capacities (0.1 => one tenth of
  /// the thesis populations on one tenth of the hardware).
  double scale = 0.10;
  double think_time_mean_s = 14.0;
  double synchrep_interval_s = 15.0 * 60.0;
  double indexbuild_delay_s = 5.0 * 60.0;
  /// §9.1.1 what-if: parallelizable index build (thesis default: 1 core).
  unsigned indexbuild_parallelism = 1;
  std::uint64_t seed = 42;
};

/// Data center names used by the global scenarios, in id order:
/// NA, EU, AS1, SA, AFR, AUS, AS2 (AS2 is a client-only satellite site).
extern const char* const kGlobalDcNames[7];

Scenario make_consolidated_scenario(const GlobalOptions& options);
Scenario make_multimaster_scenario(const GlobalOptions& options);

/// Client slots the Ch. 6/7 populations allocate at `scale`. Both factories
/// refuse a scale whose slots do not fit in memory (require_slot_memory)
/// before they build anything.
double global_client_slots(double scale);

/// Table 7.2 (percentages), extended with the AS2 satellite which accesses
/// like AS1 and owns nothing.
AccessPatternMatrix multimaster_apm();

}  // namespace gdisim
