#include "config/scenarios.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace gdisim {

void Scenario::register_with(SimulationLoop& loop) {
  topology->register_with(loop);
  for (auto& p : populations) loop.add_agent(p.get());
  for (auto& l : launchers) loop.add_agent(l.get());
  for (auto& d : synchreps) loop.add_agent(d.get());
  for (auto& d : indexbuilds) loop.add_agent(d.get());
}

ClientPopulation* Scenario::population(const std::string& name) {
  for (auto& p : populations) {
    if (p->config().name == name) return p.get();
  }
  return nullptr;
}

SynchRepDaemon* Scenario::synchrep_at(DcId dc) {
  for (auto& d : synchreps) {
    if (d->home_dc() == dc) return d.get();
  }
  return nullptr;
}

IndexBuildDaemon* Scenario::indexbuild_at(DcId dc) {
  for (auto& d : indexbuilds) {
    if (d->home_dc() == dc) return d.get();
  }
  return nullptr;
}

std::size_t Scenario::total_logged_in(const std::string& app_prefix, DcId dc) const {
  std::size_t n = 0;
  for (const auto& p : populations) {
    if (!app_prefix.empty() && p->config().name.rfind(app_prefix, 0) != 0) continue;
    if (dc != kInvalidDc && p->config().dc != dc) continue;
    n += p->logged_in();
  }
  return n;
}

std::size_t Scenario::total_active(const std::string& app_prefix, DcId dc) const {
  std::size_t n = 0;
  for (const auto& p : populations) {
    if (!app_prefix.empty() && p->config().name.rfind(app_prefix, 0) != 0) continue;
    if (dc != kInvalidDc && p->config().dc != dc) continue;
    n += p->active();
  }
  return n;
}

std::vector<std::string> install_standard_probes(Collector& collector, Scenario& scenario) {
  std::vector<std::string> labels;
  Topology& topo = *scenario.topology;
  for (DcId d = 0; d < topo.dc_count(); ++d) {
    DataCenter& dc = topo.dc(d);
    for (unsigned k = 0; k < static_cast<unsigned>(TierKind::kCount); ++k) {
      Tier* tier = dc.tier(static_cast<TierKind>(k));
      if (tier == nullptr) continue;
      std::string label = "cpu/" + dc.name() + "/" + tier_kind_name(static_cast<TierKind>(k));
      collector.add_probe(label,
                          [tier](Tick now) { return tier->take_window_cpu_utilization(now); });
      labels.push_back(label);
      std::string mem_label =
          "mem/" + dc.name() + "/" + tier_kind_name(static_cast<TierKind>(k));
      collector.add_probe(mem_label, [tier](Tick) { return tier->total_memory_occupied(); });
      labels.push_back(mem_label);
    }
  }
  for (DcId a = 0; a < topo.dc_count(); ++a) {
    for (DcId b = 0; b < topo.dc_count(); ++b) {
      LinkComponent* link = topo.link(a, b);
      if (link == nullptr) continue;
      std::string label = "net/" + topo.dc(a).name() + "->" + topo.dc(b).name();
      collector.add_probe(label,
                          [link](Tick now) { return link->take_window_utilization(now); });
      labels.push_back(label);
    }
  }
  Scenario* sc = &scenario;
  collector.add_probe("clients/logged_in", [sc](Tick) {
    return static_cast<double>(sc->total_logged_in());
  });
  labels.push_back("clients/logged_in");
  collector.add_probe("clients/active", [sc](Tick) {
    return static_cast<double>(sc->total_active());
  });
  labels.push_back("clients/active");
  for (auto& l : scenario.launchers) {
    SeriesLauncher* sl = l.get();
    std::string label = "series/" + std::string(sl->name());
    collector.add_probe(label, [sl](Tick) { return static_cast<double>(sl->concurrent()); });
    labels.push_back(label);
  }
  return labels;
}

// ---------------------------------------------------------------------------
// Chapter 5 validation scenario.

std::vector<SeriesOp> validation_series(double size_mb) {
  return {
      {"CAD.LOGIN", size_mb},          {"CAD.TEXT-SEARCH", size_mb},
      {"CAD.FILTER", size_mb},         {"CAD.EXPLORE", size_mb},
      {"CAD.SPATIAL-SEARCH", size_mb}, {"CAD.SELECT", size_mb},
      {"CAD.OPEN", size_mb},           {"CAD.SAVE", size_mb},
  };
}

Scenario make_validation_scenario(const ValidationOptions& options) {
  Scenario s;
  InfrastructureBuilder builder(options.seed);

  // Downscaled single data center (Figure 5-1). The thesis' two identical
  // SANs are modeled as one SAN with doubled controllers/disks.
  const double hit = options.mem_cache_hit;
  DataCenterBlueprint na;
  na.name = "NA";
  na.tiers[TierKind::App] = TierNotation{2, 2, 32.0, 2.2, hit, 32.0};
  na.tiers[TierKind::Db] = TierNotation{1, 2, 64.0, 2.5, hit, 28.0};
  na.tiers[TierKind::Fs] = TierNotation{1, 2, 12.0, 2.5, hit, 12.0};
  na.tiers[TierKind::Idx] = TierNotation{1, 2, 64.0, 2.5, hit, 12.0};
  na.san = SanNotation{2, 40, 15000.0};
  na.tier_link = LinkNotation{1.0, 4.5, 1.0};  // L^(1,4.5) — 1 Gbps, 4.5 ms
  builder.add_datacenter(na);
  s.topology = builder.finish();

  s.master_dc = s.topology->find_dc("NA");
  s.ctx = std::make_unique<OperationContext>(*s.topology, s.master_dc);
  s.catalog = std::make_unique<OperationCatalog>(OperationCatalog::standard());
  s.apm = AccessPatternMatrix::single_master(1, s.master_dc);

  // Series intervals per experiment (§5.2.4).
  double light_s = 15.0, avg_s = 36.0, heavy_s = 60.0;
  if (options.experiment == 2) {
    light_s = 12.0;
    avg_s = 29.0;
    heavy_s = 48.0;
  } else if (options.experiment == 3) {
    light_s = 10.0;
    avg_s = 24.0;
    heavy_s = 40.0;
  }

  // NOTE: the TickClock used by launchers is fixed here; benches must build
  // the loop with the same tick length.
  s.tick_seconds = kValidationTickSeconds;
  const TickClock clock(kValidationTickSeconds);

  auto add_series = [&](const std::string& name, double size_mb, double interval) {
    SeriesLauncherConfig cfg;
    cfg.name = name;
    cfg.dc = s.master_dc;
    cfg.series = validation_series(size_mb);
    cfg.interval_s = interval;
    cfg.stop_after_s = options.stop_launch_s;
    s.launchers.push_back(
        std::make_unique<SeriesLauncher>(cfg, *s.catalog, *s.ctx, clock));
  };
  add_series("light", SeriesSizes::kLightMb, light_s);
  add_series("average", SeriesSizes::kAverageMb, avg_s);
  add_series("heavy", SeriesSizes::kHeavyMb, heavy_s);
  return s;
}

// ---------------------------------------------------------------------------
// Chapters 6/7 global scenarios.

const char* const kGlobalDcNames[7] = {"NA", "EU", "AS1", "SA", "AFR", "AUS", "AS2"};

namespace {

constexpr int kNumDcs = 7;
// Business-hour windows by DC (GMT): start, end.
constexpr double kShiftStart[kNumDcs] = {13.0, 7.0, 0.0, 11.0, 6.0, 22.0, 0.0};
constexpr double kShiftEnd[kNumDcs] = {22.0, 16.0, 9.0, 20.0, 15.0, 7.0, 9.0};

// Peak logged-in clients per application and DC at scale 1.0 (shapes of
// Figures 6-5..6-7: CAD global peak ~2000, VIS ~2500, PDM ~1400).
constexpr double kCadPeak[kNumDcs] = {850, 700, 230, 180, 60, 160, 60};
constexpr double kVisPeak[kNumDcs] = {1000, 900, 300, 220, 80, 200, 80};
constexpr double kPdmPeak[kNumDcs] = {600, 500, 160, 120, 40, 100, 40};

// Peak data growth MB/h at scale 1.0 (shape of Figure 6-10).
constexpr double kGrowthPeak[kNumDcs] = {14000, 10100, 3900, 2000, 700, 2000, 700};

/// `base * scale`, rounded, at least 1. A scale that pushes a core or disk
/// count past unsigned range fails instead of wrapping.
unsigned scaled_count(double base, double scale) {
  const double count = std::round(base * scale);
  if (!(count <= std::numeric_limits<unsigned>::max())) {
    std::ostringstream why;
    why << "scale " << scale << " overflows a core or disk count: " << base << " x " << scale
        << " > " << std::numeric_limits<unsigned>::max();
    throw std::invalid_argument(why.str());
  }
  return std::max(1u, static_cast<unsigned>(count));
}

/// WAN blueprint shared by Ch. 6 and Ch. 7 (Figure 6-4): 155 Mbps trunk
/// links from NA, 45 Mbps spokes from the AS1 hub, EU backup links unused.
void build_wan(InfrastructureBuilder& builder) {
  const double alloc = 0.20;  // applications may use 20% of WAN capacity
  const LinkNotation trunk{0.155, 70.0, alloc};
  const LinkNotation trunk_as{0.155, 150.0, alloc};
  const LinkNotation spoke{0.045, 110.0, alloc};
  const LinkNotation spoke_short{0.045, 50.0, alloc};
  builder.connect_duplex("NA", "EU", trunk);
  builder.connect_duplex("NA", "SA", LinkNotation{0.155, 60.0, alloc});
  builder.connect_duplex("NA", "AS1", trunk_as);
  builder.connect_duplex("AS1", "AFR", spoke);
  builder.connect_duplex("AS1", "AS2", spoke_short);
  builder.connect_duplex("AS1", "AUS", spoke);
  // Backup links (exist, unused by routing — Table 6.1 rows at 0%).
  builder.connect_duplex("EU", "AFR", spoke, /*usable=*/false);
  builder.connect_duplex("EU", "AS1", trunk_as, /*usable=*/false);
}

/// Builds the data centers and the WAN. Every blueprint, and with it every
/// scaled count, is known by now, so a scale whose client slots cannot fit
/// in memory fails here, before anything large is allocated.
void build_global_infrastructure(InfrastructureBuilder& builder,
                                 const std::array<DataCenterBlueprint, kNumDcs>& blueprints,
                                 double scale) {
  require_slot_memory(global_client_slots(scale), scale);
  for (const DataCenterBlueprint& bp : blueprints) builder.add_datacenter(bp);
  build_wan(builder);
}

void add_population(Scenario& s, const std::string& app, DcId dc, double peak, double scale,
                    const GlobalOptions& options, const TickClock& clock, double size_mb,
                    double jitter) {
  // Tiny scales used to drop a small population entirely when its peak
  // rounded below one client, which silently changed the (app, DC) coverage
  // of a scale sweep. Clamp to at least one client instead so every
  // population exists at every scale; the shapes stay linear above that.
  const double scaled_peak = std::max(peak * scale, 1.0);
  ClientPopulationConfig cfg;
  cfg.name = app + "@" + kGlobalDcNames[dc];
  cfg.dc = dc;
  cfg.curve = WorkloadCurve::business_hours(scaled_peak, 0.05 * scaled_peak,
                                            kShiftStart[dc], kShiftEnd[dc]);
  cfg.mix = OperationMix::uniform(s.catalog->operations_of(app));
  cfg.think_time_mean_s = options.think_time_mean_s;
  cfg.file_size_mb = size_mb;
  cfg.file_size_jitter = jitter;
  cfg.seed = options.seed;
  s.populations.push_back(
      std::make_unique<ClientPopulation>(cfg, *s.catalog, *s.ctx, clock));
}

void add_workloads(Scenario& s, const GlobalOptions& options, const TickClock& clock) {
  for (DcId d = 0; d < kNumDcs; ++d) {
    add_population(s, "CAD", d, kCadPeak[d], options.scale, options, clock, 50.0, 0.5);
    add_population(s, "VIS", d, kVisPeak[d], options.scale, options, clock, 5.0, 0.5);
    add_population(s, "PDM", d, kPdmPeak[d], options.scale, options, clock, 8.0, 0.5);
  }
}

DataGrowthModel make_growth(const GlobalOptions& options) {
  DataGrowthModel growth;
  for (DcId d = 0; d < kNumDcs; ++d) {
    growth.set_curve(d, WorkloadCurve::business_hours(kGrowthPeak[d] * options.scale,
                                                      0.03 * kGrowthPeak[d] * options.scale,
                                                      kShiftStart[d], kShiftEnd[d]));
  }
  growth.set_average_file_mb(50.0);
  return growth;
}

std::vector<DcId> all_dcs() {
  std::vector<DcId> v(kNumDcs);
  for (int i = 0; i < kNumDcs; ++i) v[i] = static_cast<DcId>(i);
  return v;
}

}  // namespace

double global_client_slots(double scale) {
  double slots = 0.0;
  for (DcId d = 0; d < kNumDcs; ++d) {
    for (double peak : {kCadPeak[d], kVisPeak[d], kPdmPeak[d]}) {
      slots += ClientPopulation::slots_for_peak(std::max(peak * scale, 1.0));
    }
  }
  return slots;
}

AccessPatternMatrix multimaster_apm() {
  // Table 7.2, reordered to (NA, EU, AS1, SA, AFR, AUS) and extended with
  // the AS2 satellite (accesses like AS1, owns nothing).
  // Thesis order was (EU, NA, AUS, SA, AFR, AS) for rows "data access" and
  // columns "data owner".
  //                    NA     EU     AS1   SA     AFR    AUS   AS2
  std::vector<std::vector<double>> rows = {
      /*NA*/ {81.87, 15.47, 0.18, 0.91, 0.01, 1.56, 0.0},
      /*EU*/ {12.71, 83.65, 0.81, 1.04, 0.13, 1.67, 0.0},
      /*AS1*/ {30.45, 61.00, 5.27, 0.85, 0.04, 2.39, 0.0},
      /*SA*/ {17.55, 38.99, 0.09, 39.87, 0.08, 3.42, 0.0},
      /*AFR*/ {31.38, 36.49, 0.78, 0.26, 17.66, 13.45, 0.0},
      /*AUS*/ {13.72, 31.24, 0.23, 0.18, 4.35, 50.28, 0.0},
      /*AS2*/ {30.45, 61.00, 5.27, 0.85, 0.04, 2.39, 0.0},
  };
  return AccessPatternMatrix(std::move(rows));
}

Scenario make_consolidated_scenario(const GlobalOptions& options) {
  Scenario s;
  InfrastructureBuilder builder(options.seed);
  const double sc = options.scale;

  std::array<DataCenterBlueprint, kNumDcs> blueprints;
  for (DcId d = 0; d < kNumDcs; ++d) {
    DataCenterBlueprint& bp = blueprints[d];
    bp.name = kGlobalDcNames[d];
    bp.san = SanNotation{2, std::max(8u, scaled_count(120, sc)), 15000.0};
    bp.tier_link = LinkNotation{1.0, 0.5, 1.0};
    if (d == 0) {
      // Master data center: full file-management capability (Figure 6-2).
      bp.tiers[TierKind::App] = TierNotation{8, scaled_count(40, sc), 32.0, 2.5, 0.30, 32.0};
      bp.tiers[TierKind::Db] = TierNotation{1, scaled_count(480, sc), 64.0, 2.5, 0.30, 28.0};
      bp.tiers[TierKind::Fs] = TierNotation{2, scaled_count(50, sc), 16.0, 2.5, 0.30, 12.0};
      bp.tiers[TierKind::Idx] = TierNotation{1, scaled_count(160, sc), 64.0, 2.5, 0.30, 12.0};
    } else {
      // Slave data centers: file serving only.
      const unsigned fs_servers = (d == 1) ? 2u : (d == 2 || d == 5 ? 2u : 1u);
      bp.tiers[TierKind::Fs] =
          TierNotation{fs_servers, scaled_count(40, sc), 16.0, 2.5, 0.30, 12.0};
    }
  }
  build_global_infrastructure(builder, blueprints, sc);
  s.topology = builder.finish();

  s.master_dc = s.topology->find_dc("NA");
  s.ctx = std::make_unique<OperationContext>(*s.topology, s.master_dc);
  s.catalog = std::make_unique<OperationCatalog>(OperationCatalog::standard());
  s.apm = AccessPatternMatrix::single_master(kNumDcs, s.master_dc);
  s.growth = make_growth(options);
  s.scale = options.scale;

  s.tick_seconds = kGlobalTickSeconds;
  const TickClock clock(kGlobalTickSeconds);
  add_workloads(s, options, clock);

  SynchRepConfig sr;
  sr.name = "bg/synchrep@NA";
  sr.home_dc = s.master_dc;
  sr.interval_s = options.synchrep_interval_s;
  sr.participant_dcs = all_dcs();
  s.synchreps.push_back(std::make_unique<SynchRepDaemon>(
      sr, s.growth, AccessPatternMatrix(), *s.ctx, clock));

  IndexBuildConfig ib;
  ib.name = "bg/indexbuild@NA";
  ib.home_dc = s.master_dc;
  ib.delay_after_completion_s = options.indexbuild_delay_s;
  ib.producer_dcs = all_dcs();
  ib.index_parallelism = options.indexbuild_parallelism;
  s.indexbuilds.push_back(std::make_unique<IndexBuildDaemon>(
      ib, s.growth, AccessPatternMatrix(), *s.ctx, clock));
  return s;
}

Scenario make_multimaster_scenario(const GlobalOptions& options) {
  Scenario s;
  InfrastructureBuilder builder(options.seed);
  const double sc = options.scale;

  std::array<DataCenterBlueprint, kNumDcs> blueprints;
  for (DcId d = 0; d < kNumDcs; ++d) {
    DataCenterBlueprint& bp = blueprints[d];
    bp.name = kGlobalDcNames[d];
    bp.san = SanNotation{2, std::max(8u, scaled_count(120, sc)), 15000.0};
    bp.tier_link = LinkNotation{1.0, 0.5, 1.0};
    if (d == 0) {
      // D_NA scaled down: half the app servers, half the db cores (§7.3.1).
      bp.tiers[TierKind::App] = TierNotation{4, scaled_count(40, sc), 32.0, 2.5, 0.30, 32.0};
      bp.tiers[TierKind::Db] = TierNotation{1, scaled_count(240, sc), 64.0, 2.5, 0.30, 28.0};
      bp.tiers[TierKind::Fs] = TierNotation{2, scaled_count(50, sc), 16.0, 2.5, 0.30, 12.0};
      bp.tiers[TierKind::Idx] = TierNotation{1, scaled_count(160, sc), 64.0, 2.5, 0.30, 12.0};
    } else if (d == 1) {
      // D_EU: second-largest owner (it owns the majority of global accesses
      // per Table 7.2) — three large app servers and a 16-core-class db.
      bp.tiers[TierKind::App] = TierNotation{3, scaled_count(70, sc), 32.0, 2.5, 0.30, 32.0};
      bp.tiers[TierKind::Db] = TierNotation{1, scaled_count(160, sc), 64.0, 2.5, 0.30, 28.0};
      bp.tiers[TierKind::Fs] = TierNotation{2, scaled_count(40, sc), 16.0, 2.5, 0.30, 12.0};
      bp.tiers[TierKind::Idx] = TierNotation{1, scaled_count(80, sc), 64.0, 2.5, 0.30, 12.0};
    } else if (d != 6) {
      // Remaining masters: one app server, 8-core-class db (§7.3.1).
      bp.tiers[TierKind::App] = TierNotation{1, scaled_count(40, sc), 32.0, 2.5, 0.30, 32.0};
      bp.tiers[TierKind::Db] = TierNotation{1, scaled_count(60, sc), 64.0, 2.5, 0.30, 28.0};
      bp.tiers[TierKind::Fs] = TierNotation{2, scaled_count(40, sc), 16.0, 2.5, 0.30, 12.0};
      bp.tiers[TierKind::Idx] = TierNotation{1, scaled_count(40, sc), 64.0, 2.5, 0.30, 12.0};
    } else {
      // AS2 remains a client-only satellite with file serving.
      bp.tiers[TierKind::Fs] = TierNotation{1, scaled_count(40, sc), 16.0, 2.5, 0.30, 12.0};
    }
  }
  build_global_infrastructure(builder, blueprints, sc);
  s.topology = builder.finish();

  s.master_dc = s.topology->find_dc("NA");
  s.ctx = std::make_unique<OperationContext>(*s.topology, s.master_dc);
  s.catalog = std::make_unique<OperationCatalog>(OperationCatalog::standard());
  s.apm = multimaster_apm();
  s.growth = make_growth(options);
  s.scale = options.scale;

  s.tick_seconds = kGlobalTickSeconds;
  const TickClock clock(kGlobalTickSeconds);
  add_workloads(s, options, clock);

  // Ownership-aware routing: clients sample the owner of each operation's
  // file from the APM.
  const AccessPatternMatrix apm = s.apm;
  for (auto& p : s.populations) {
    p->set_owner_sampler(
        [apm](DcId origin, double u) { return apm.sample_owner(origin, u); });
  }

  // One SR + IB daemon per master data center (Figure 7-3).
  for (DcId d = 0; d < 6; ++d) {
    SynchRepConfig sr;
    sr.name = std::string("bg/synchrep@") + kGlobalDcNames[d];
    sr.home_dc = d;
    sr.interval_s = options.synchrep_interval_s;
    sr.participant_dcs = all_dcs();
    s.synchreps.push_back(
        std::make_unique<SynchRepDaemon>(sr, s.growth, s.apm, *s.ctx, clock));

    IndexBuildConfig ib;
    ib.name = std::string("bg/indexbuild@") + kGlobalDcNames[d];
    ib.home_dc = d;
    ib.delay_after_completion_s = options.indexbuild_delay_s;
    ib.producer_dcs = all_dcs();
    ib.index_parallelism = options.indexbuild_parallelism;
    s.indexbuilds.push_back(
        std::make_unique<IndexBuildDaemon>(ib, s.growth, s.apm, *s.ctx, clock));
  }
  return s;
}

}  // namespace gdisim
