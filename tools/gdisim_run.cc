// gdisim_run — command-line front end for the canned scenarios.
//
//   gdisim_run --scenario consolidated --hours 24 --scale 0.1 --csv out.csv
//
// Options:
//   --scenario validation|consolidated|multimaster   (default consolidated)
//   --config FILE            load a .gdisim scenario file instead
//   --experiment 1|2|3       validation series frequencies (default 1)
//   --hours H                simulated horizon (default 24; validation: 38 min)
//   --scale S                population/hardware scale (default 0.1)
//   --seed N                 run seed (default 42)
//   --csv PATH               dump every collector series as CSV
//   --dense-sweep            disable active-set scheduling (reference oracle)
//   --quiet                  suppress the summary tables
//   --fingerprint            print the 64-bit result digest
//   --validate               parse + build the scenario, report, and exit
//   --checkpoint PATH        write a snapshot at the end of the run
//   --checkpoint-every S     also snapshot every S simulated seconds
//   --restore PATH           start from a snapshot instead of t=0 (the
//                            scenario must be structurally identical;
//                            --hours remains the absolute horizon)
//   --tick-profile PATH      dump per-phase wall-clock buckets as JSON
//                            (GDISIM_TICK_PROFILE builds only)
//
// Exit codes: 0 success; 2 bad command line (unknown flag, missing or
// malformed value, an --hours horizon beyond the tick range — the message
// names the flag); 1 anything that fails after parsing (scenario file errors
// as `file:line: why`, unwritable output paths, snapshot restore errors as
// `path:byte N: why`, a scale too big for memory).
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <new>
#include <stdexcept>
#include <string>
#include <system_error>
#include <type_traits>
#include <vector>

#include "config/loader.h"
#include "core/audit.h"
#include "core/tick_profiler.h"
#include "sim/fingerprint.h"
#include "sim/gdisim.h"

using namespace gdisim;

namespace {

struct CliOptions {
  std::string scenario = "consolidated";
  std::string config_path;
  int experiment = 1;
  double hours = -1.0;
  double scale = 0.10;
  bool scale_set = false;
  std::uint64_t seed = 42;
  std::string csv_path;
  bool dense_sweep = false;
  bool quiet = false;
  bool fingerprint = false;
  bool validate = false;
  std::string checkpoint_path;
  double checkpoint_every_s = 0.0;
  std::string restore_path;
  std::string tick_profile_path;
};

[[noreturn]] void usage() {
  std::cerr << "usage: gdisim_run [--scenario validation|consolidated|multimaster | --config FILE]\n"
               "       [--experiment 1|2|3] [--hours H] [--scale S] [--seed N]\n"
               "       [--csv PATH] [--dense-sweep] [--quiet] [--fingerprint] [--validate]\n"
               "       [--checkpoint PATH] [--checkpoint-every S] [--restore PATH]\n"
               "       [--tick-profile PATH]\n";
  std::exit(2);
}

[[noreturn]] void bad_value(const std::string& flag, const std::string& value) {
  std::cerr << "gdisim_run: " << flag << ": bad value '" << value << "'\n";
  std::exit(2);
}

/// The flag's value as a whole-string number accepted by `ok` (no leading
/// blanks or '+', no trailing junk, no sign on unsigned types, finite for
/// floating point); anything else exits 2 naming the flag.
template <typename T, typename Ok>
T parse_number(const std::string& flag, const std::string& value, Ok ok) {
  T v{};
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, v);
  bool valid = ec == std::errc() && ptr == end;
  if constexpr (std::is_floating_point_v<T>) valid = valid && std::isfinite(v);
  if (!valid || !ok(v)) bad_value(flag, value);
  return v;
}

CliOptions parse(int argc, char** argv) {
  CliOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "gdisim_run: " << arg << ": missing value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    auto any = [](auto) { return true; };
    auto positive = [](double v) { return v > 0.0; };
    if (arg == "--scenario") {
      opt.scenario = next();
      if (opt.scenario != "validation" && opt.scenario != "consolidated" &&
          opt.scenario != "multimaster") {
        bad_value(arg, opt.scenario);
      }
    } else if (arg == "--config") {
      opt.config_path = next();
    } else if (arg == "--experiment") {
      opt.experiment = parse_number<int>(arg, next(), [](int e) { return e >= 1 && e <= 3; });
    } else if (arg == "--hours") {
      opt.hours = parse_number<double>(arg, next(), [](double h) { return h >= 0.0; });
    } else if (arg == "--scale") {
      opt.scale = parse_number<double>(arg, next(), positive);
      opt.scale_set = true;
    } else if (arg == "--seed") {
      opt.seed = parse_number<std::uint64_t>(arg, next(), any);
    } else if (arg == "--csv") {
      opt.csv_path = next();
    } else if (arg == "--dense-sweep") {
      opt.dense_sweep = true;
    } else if (arg == "--quiet") {
      opt.quiet = true;
    } else if (arg == "--fingerprint") {
      opt.fingerprint = true;
    } else if (arg == "--validate") {
      opt.validate = true;
    } else if (arg == "--checkpoint") {
      opt.checkpoint_path = next();
    } else if (arg == "--checkpoint-every") {
      opt.checkpoint_every_s = parse_number<double>(arg, next(), positive);
    } else if (arg == "--restore") {
      opt.restore_path = next();
    } else if (arg == "--tick-profile") {
      opt.tick_profile_path = next();
      if (!tickprof::kEnabled) {
        std::cerr << "gdisim_run: --tick-profile needs a GDISIM_TICK_PROFILE build "
                     "(cmake -DGDISIM_TICK_PROFILE=ON)\n";
        std::exit(2);
      }
    } else {
      std::cerr << "gdisim_run: unknown flag '" << arg << "'\n";
      usage();
    }
  }
  if (opt.hours < 0) opt.hours = opt.scenario == "validation" ? 38.0 / 60.0 : 24.0;
  if (!opt.config_path.empty() && !opt.scale_set) opt.scale = 1.0;
  return opt;
}

Scenario make_scenario(const CliOptions& opt) {
  // A config file describes the operator's real inventory, so it runs
  // unscaled unless --scale is given explicitly (parse() normalizes the
  // default to 1.0); the canned scenarios keep their 0.1 default.
  if (!opt.config_path.empty()) return load_scenario_file(opt.config_path, opt.scale);
  if (opt.scenario == "validation") {
    ValidationOptions v;
    v.experiment = opt.experiment;
    v.seed = opt.seed;
    v.stop_launch_s = opt.hours * 3600.0 - 3.0 * 60.0;
    return make_validation_scenario(v);
  }
  GlobalOptions g;
  g.scale = opt.scale;
  g.seed = opt.seed;
  return opt.scenario == "multimaster" ? make_multimaster_scenario(g)
                                       : make_consolidated_scenario(g);
}

void print_summary(GdiSimulator& sim, double horizon_s) {
  std::cout << "\nUtilization (mean over run / peak):\n";
  TableReport util({"resource", "mean", "peak"});
  Topology& topo = *sim.scenario().topology;
  for (DcId d = 0; d < topo.dc_count(); ++d) {
    for (unsigned k = 0; k < static_cast<unsigned>(TierKind::kCount); ++k) {
      const std::string label = "cpu/" + topo.dc(d).name() + "/" +
                                tier_kind_name(static_cast<TierKind>(k));
      const TimeSeries* s = sim.collector().find(label);
      if (s == nullptr || s->empty()) continue;
      util.add_row({label, TableReport::pct(s->mean_between(0, horizon_s)),
                    TableReport::pct(s->max_value())});
    }
  }
  for (DcId a = 0; a < topo.dc_count(); ++a) {
    for (DcId b = 0; b < topo.dc_count(); ++b) {
      if (topo.link(a, b) == nullptr) continue;
      const std::string label = "net/" + topo.dc(a).name() + "->" + topo.dc(b).name();
      const TimeSeries* s = sim.collector().find(label);
      if (s == nullptr || s->empty()) continue;
      util.add_row({label, TableReport::pct(s->mean_between(0, horizon_s)),
                    TableReport::pct(s->max_value())});
    }
  }
  util.print(std::cout);

  std::cout << "\nResponse times:\n";
  TableReport resp({"population", "operation", "count", "mean (s)", "max (s)"});
  for (auto& p : sim.scenario().populations) {
    for (const auto& [op, stats] : p->stats()) {
      resp.add_row({p->config().name, op, std::to_string(stats.count),
                    TableReport::fmt(stats.mean()), TableReport::fmt(stats.max_s)});
    }
  }
  for (auto& l : sim.scenario().launchers) {
    for (const auto& [op, stats] : l->stats()) {
      resp.add_row({l->name(), op, std::to_string(stats.count),
                    TableReport::fmt(stats.mean()), TableReport::fmt(stats.max_s)});
    }
  }
  resp.print(std::cout);

  for (auto& sr : sim.scenario().synchreps) {
    std::cout << "\n" << sr->name() << ": " << sr->ledger().runs().size()
              << " runs, R_SR^max = " << TableReport::fmt(sr->max_staleness_s() / 60.0)
              << " min";
  }
  for (auto& ib : sim.scenario().indexbuilds) {
    std::cout << "\n" << ib->name() << ": " << ib->ledger().runs().size()
              << " runs, R_IB^max = " << TableReport::fmt(ib->max_unsearchable_s() / 60.0)
              << " min";
  }
  std::cout << "\n";
}

/// Output files are opened (in append mode, so nothing is truncated) before
/// the run starts: an unwritable path fails in milliseconds, not after a
/// multi-hour simulation.
void require_writable(const std::string& path) {
  if (path.empty()) return;
  std::ofstream probe(path, std::ios::app);
  if (!probe) throw std::runtime_error("cannot open '" + path + "' for writing");
}

int run(const CliOptions& opt) {
  if (opt.validate) {
    // Parse + build only: loader errors carry "<file>:<line>: ..." and the
    // offending token, so a bad config fails here with an editor-friendly
    // message instead of minutes into a run.
    Scenario scenario = make_scenario(opt);
    GdiSimulator sim(std::move(scenario));
    std::cout << "config OK: " << (opt.config_path.empty() ? opt.scenario : opt.config_path)
              << ": " << sim.loop().agent_count() << " agents, "
              << sim.scenario().populations.size() << " populations, "
              << sim.scenario().synchreps.size() << " synchreps, "
              << sim.scenario().indexbuilds.size() << " indexbuilds\n";
    return 0;
  }

  for (const std::string* path : {&opt.checkpoint_path, &opt.csv_path, &opt.tick_profile_path}) {
    require_writable(*path);
  }

  std::cout << "GDISim: scenario="
            << (opt.config_path.empty() ? opt.scenario : opt.config_path) << " hours=" << opt.hours
            << " scale=" << opt.scale << " seed=" << opt.seed
            << "\n";

  Scenario scenario = make_scenario(opt);
  // Absolute horizon: a restored run continues to the same end tick the
  // uninterrupted run would reach, so fingerprints stay comparable.
  const double horizon_s = opt.hours * 3600.0;
  if (TickClock(scenario.tick_seconds).to_ticks(horizon_s) == kNeverTick) {
    std::cerr << "gdisim_run: --hours: " << opt.hours << " h is beyond the tick range; at a "
              << scenario.tick_seconds << " s tick the longest run is "
              << 0x1p63 * scenario.tick_seconds / 3600.0 << " h\n";
    return 2;
  }
  SimulatorConfig cfg;
  cfg.collect_every_s = opt.scenario == "validation" ? 6.0 : 30.0;
  if (opt.dense_sweep) cfg.scheduler = SchedulerMode::kDenseSweep;
  GdiSimulator sim(std::move(scenario), cfg);

  if (!opt.restore_path.empty()) {
    // restore() diagnostics are `path:byte N: why` (loader format).
    sim.restore(opt.restore_path);
    std::cout << "restored " << opt.restore_path << " at t=" << format_sim_time(sim.now_seconds())
              << "\n";
  }

  if (!opt.checkpoint_path.empty() && opt.checkpoint_every_s > 0.0) {
    double next_cp = sim.now_seconds() + opt.checkpoint_every_s;
    while (next_cp < horizon_s) {
      sim.run_until_seconds(next_cp);
      sim.checkpoint(opt.checkpoint_path);
      next_cp += opt.checkpoint_every_s;
    }
  }
  sim.run_until_seconds(horizon_s);
  if (!opt.checkpoint_path.empty()) sim.checkpoint(opt.checkpoint_path);
  std::cout << "simulated " << format_sim_time(horizon_s) << " of operation ("
            << sim.loop().now() << " ticks, " << sim.loop().agent_count() << " agents)\n";
  const SchedulerStats& sched = sim.loop().scheduler_stats();
  std::cout << "scheduler: "
            << (sim.loop().scheduler_mode() == SchedulerMode::kActiveSet ? "active-set"
                                                                         : "dense-sweep")
            << ", mean active agents = " << TableReport::fmt(sched.mean_active())
            << " (occupancy " << TableReport::fmt(100.0 * sched.occupancy()) << "%)\n";
  if (!opt.quiet && sim.loop().scheduler_mode() == SchedulerMode::kActiveSet) {
    std::vector<AgentId> order(sched.per_agent_runs.size());
    for (AgentId i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&sched](AgentId a, AgentId b) {
      return sched.per_agent_runs[a] > sched.per_agent_runs[b];
    });
    std::cout << "most-active agents (share of iterations):\n";
    for (std::size_t i = 0; i < order.size() && i < 12; ++i) {
      const AgentId id = order[i];
      std::cout << "  " << sim.loop().agent(id)->name() << "  "
                << TableReport::pct(static_cast<double>(sched.per_agent_runs[id]) /
                                    static_cast<double>(sched.iterations))
                << "\n";
    }
  }

  if (!opt.quiet) print_summary(sim, horizon_s);

  if (opt.fingerprint) {
    // Stable digest of the run's observable results. CI's determinism smoke
    // step (tools/ci.sh smoke) diffs this line between the active-set
    // scheduler and --dense-sweep; any mismatch is a scheduler divergence.
    std::cout << "fingerprint: " << std::hex << result_fingerprint(sim) << std::dec << "\n";
  }

#if GDISIM_AUDIT_ENABLED
  {
    const audit::Report r = audit::snapshot();
    std::cout << "audit: drain_hash=" << std::hex << r.drain_hash << std::dec
              << " failures=" << r.failures;
    for (unsigned c = 0; c < static_cast<unsigned>(audit::Category::kCount); ++c) {
      const auto cat = static_cast<audit::Category>(c);
      if (r.spawned[c] == 0) continue;
      std::cout << " " << audit::category_name(cat) << "=" << r.completed[c] << "/"
                << r.spawned[c];
    }
    std::cout << "\n";
  }
#endif

  if (!opt.tick_profile_path.empty()) {
    if (tickprof::dump_json(opt.tick_profile_path)) {
      std::cout << "wrote tick profile to " << opt.tick_profile_path << "\n";
    } else {
      std::cerr << "cannot open " << opt.tick_profile_path << "\n";
      return 1;
    }
  }

  if (!opt.csv_path.empty()) {
    std::ofstream out(opt.csv_path);
    if (!out) {
      std::cerr << "cannot open " << opt.csv_path << "\n";
      return 1;
    }
    std::vector<const TimeSeries*> series;
    for (std::size_t i = 0; i < sim.collector().probe_count(); ++i) {
      series.push_back(&sim.collector().series(i));
    }
    print_csv(out, series);
    std::cout << "wrote " << series.size() << " series to " << opt.csv_path << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const CliOptions opt = parse(argc, argv);
  try {
    return run(opt);
  } catch (const std::bad_alloc&) {
    // The scenario factories refuse a scale whose client slots cannot fit;
    // this reports what slipped past that estimate with the same numbers.
    std::cerr << "gdisim_run: out of memory; ";
    if (opt.config_path.empty() && opt.scenario != "validation") {
      std::cerr << describe_slot_memory(opt.scale, slot_memory(global_client_slots(opt.scale)));
    } else {
      std::cerr << "scale " << opt.scale << ": this process may use "
                << static_cast<std::uint64_t>(slot_memory(0.0).limit_bytes) << " bytes";
    }
    std::cerr << "\n";
    return 1;
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 1;
  }
}
