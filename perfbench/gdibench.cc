// gdibench — the GDISim benchmark program.
//
//   gdibench --workload consolidated_day --seed 42 --seconds 20 --trace 0
//
// Runs one named workload serially in this process (SimulatorConfig::threads
// = 0) for a wall-clock budget, checks every result against the paper-shape
// bands of EXPERIMENTS.md, and prints one JSON object as the last line of
// stdout: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones; with --trace 1 they are the per-layer
// ones, measured by spans this file places around its calls into each
// module. Nothing inside src/ is instrumented. perfbench/README.md documents
// the workloads, the metrics and how each layer figure maps onto an
// end-to-end one.
//
// Stable surface: this file only uses the scenario factories, the
// simulator's constructor, run_until_seconds, loop() statistics and agent
// names, collector() and scenario() outputs, set_collect_callback,
// result_fingerprint, and the queue classes' and Inbox's enqueue / advance /
// post / drain calls. perfbench/test_surface.py enforces the names it must
// not use, so simplifications behind that surface never need a benchmark
// edit.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "config/scenarios.h"
#include "hardware/component.h"
#include "hardware/link.h"
#include "queueing/fcfs_queue.h"
#include "queueing/ps_queue.h"
#include "sim/fingerprint.h"
#include "sim/gdisim.h"

using namespace gdisim;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

/// Peak resident set of this program image. getrusage's ru_maxrss would
/// carry over the launching process's peak across exec, so the per-mm high
/// watermark (VmHWM, reset at exec) is read instead.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0.0;
      status >> kib;
      return kib / 1024.0;
    }
    status.ignore(4096, '\n');
  }
  throw std::runtime_error("VmHWM not found in /proc/self/status");
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Uniform [0, 1) stream for the microbenchmark inputs.
class Uniform {
 public:
  explicit Uniform(std::uint64_t seed) : state_(seed) {}
  double next() {
    state_ = splitmix64(state_);
    return static_cast<double>(state_ >> 11) * 0x1.0p-53;
  }

 private:
  std::uint64_t state_;
};

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// ---------------------------------------------------------------------------
// Tracing: spans kept in memory, written out once the run ends.

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on), origin_(Clock::now()) {}

  bool on() const { return on_; }

  /// Opens a span and returns its id; -1 (and no clock read) when off.
  int begin(std::string name, int parent = -1) {
    if (!on_) return -1;
    spans_.push_back(Span{std::move(name), parent, seconds_since(origin_), 0.0});
    return static_cast<int>(spans_.size()) - 1;
  }

  /// Closes span `id` and returns its duration in seconds.
  double end(int id) {
    if (id < 0) return 0.0;
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end_s = seconds_since(origin_);
    return s.end_s - s.start_s;
  }

  bool write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[96];
      std::snprintf(buf, sizeof(buf), "\"parent\": %d, \"start_s\": %.9f, \"end_s\": %.9f",
                    s.parent, s.start_s, s.end_s);
      out << "  {\"id\": " << i << ", \"name\": \"" << s.name << "\", " << buf << "}"
          << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]\n";
    return static_cast<bool>(out);
  }

  std::size_t size() const { return spans_.size(); }

 private:
  struct Span {
    std::string name;
    int parent;
    double start_s;
    double end_s;
  };
  bool on_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Per-unit results. A unit is one consolidated day, or one validation round
// (experiments 1-3 at one replica seed).

/// Agent groups of core.runs.*, in output order.
const char* const kRunGroups[] = {"wan_link", "lan_link",       "cpu",        "nic",
                                  "switch",   "raid",           "san",        "client_station",
                                  "population", "series",       "background", "other"};

std::string run_group(const std::string& name) {
  auto starts = [&name](const char* p) { return name.rfind(p, 0) == 0; };
  if (starts("link/")) return "wan_link";
  if (starts("clients/")) return "population";
  if (starts("series/")) return "series";
  if (starts("bg/")) return "background";
  const std::size_t slash = name.rfind('/');
  const std::string last = slash == std::string::npos ? name : name.substr(slash + 1);
  if (last == "link") return "lan_link";
  if (last == "clients") return "client_station";
  if (last == "cpu" || last == "nic" || last == "switch" || last == "raid" || last == "san") {
    return last;
  }
  return "other";
}

struct Counts {
  double ticks = 0;
  double agent_phases = 0;
  std::map<std::string, double> runs;
  double wan_flows_peak = 0;
  double wan_transfers = 0;
  double ops_completed = 0;
  double synchrep_runs = 0;
  double indexbuild_runs = 0;
  double samples = 0;

  void add(const Counts& o) {
    ticks += o.ticks;
    agent_phases += o.agent_phases;
    for (const auto& [k, v] : o.runs) runs[k] += v;
    wan_flows_peak = std::max(wan_flows_peak, o.wan_flows_peak);
    wan_transfers += o.wan_transfers;
    ops_completed += o.ops_completed;
    synchrep_runs += o.synchrep_runs;
    indexbuild_runs += o.indexbuild_runs;
    samples += o.samples;
  }
};

struct UnitResult {
  std::vector<std::string> gate_failures;
  std::uint64_t fingerprint = 0;
  std::vector<double> build_s, construct_s, setup_s;  // one entry per set-up
  double wall_s = 0.0;  // first simulated tick to last result read
  double cpu_s = 0.0;   // process user+sys over the same span
  double err_pp = 0.0;  // consolidated: thesis error of the day
  /// validation: steady-state mean utilization (%) per experiment and tier.
  std::vector<double> tier_means;
  // Traced units only.
  std::vector<double> peak_h_s, trough_h_s, replica_s;
  double run_s = 0.0;  // spans around run_until_seconds
  double collect_s = 0.0;
  Counts counts;
};

/// setup_s is the median of a burst of set-ups made back to back before a
/// run's first unit. One set-up costs well under a millisecond. Each burst
/// lasts about a second, which outlasts the host's slow spells (tens of
/// milliseconds), so no spell can own its median. The counts are fixed, not
/// the duration, so the samples take the same memory however fast set-up is.
constexpr int kDayBurstSetUps = 2000;
constexpr int kValidationBurstSetUps = 30000;

/// Builds a scenario with `make` and constructs its simulator, recording
/// both durations (and spans under `parent`); returns the set-up seconds.
template <typename Make>
double timed_set_up(Make&& make, const SimulatorConfig& cfg, Tracer& tracer, int parent,
                    UnitResult& r, std::unique_ptr<GdiSimulator>& sim) {
  sim.reset();
  const int setup_span = tracer.begin("setup", parent);
  const Clock::time_point t0 = Clock::now();
  const int build_span = tracer.begin("config.build", setup_span);
  Scenario scenario = make();
  tracer.end(build_span);
  const Clock::time_point t1 = Clock::now();
  const int construct_span = tracer.begin("sim.construct", setup_span);
  sim = std::make_unique<GdiSimulator>(std::move(scenario), cfg);
  tracer.end(construct_span);
  const Clock::time_point t2 = Clock::now();
  tracer.end(setup_span);
  r.build_s.push_back(std::chrono::duration<double>(t1 - t0).count());
  r.construct_s.push_back(std::chrono::duration<double>(t2 - t1).count());
  return std::chrono::duration<double>(t2 - t0).count();
}

/// Sets up `make(i)` for i = 0 .. count - 1 back to back and returns each
/// set-up's seconds; `sim` keeps the last simulator.
template <typename Make>
std::vector<double> set_up_burst(int count, Make&& make, const SimulatorConfig& cfg,
                                 std::unique_ptr<GdiSimulator>& sim) {
  Tracer off(false);
  std::vector<double> setups;
  setups.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    UnitResult scratch;
    setups.push_back(timed_set_up([&make, i] { return make(i); }, cfg, off, -1, scratch, sim));
  }
  return setups;
}

/// Collection callback that times the same call GdiSimulator installs.
void install_timed_collect(GdiSimulator& sim, double* collect_s) {
  Collector* collector = &sim.collector();
  sim.loop().set_collect_callback([collector, collect_s](Tick now) {
    const Clock::time_point t0 = Clock::now();
    collector->collect(now);
    *collect_s += seconds_since(t0);
  });
}

std::vector<LinkComponent*> wan_links(Scenario& sc) {
  std::vector<LinkComponent*> links;
  Topology& topo = *sc.topology;
  for (DcId a = 0; a < topo.dc_count(); ++a) {
    for (DcId b = 0; b < topo.dc_count(); ++b) {
      if (LinkComponent* l = topo.link(a, b)) links.push_back(l);
    }
  }
  return links;
}

double wan_active(Scenario& sc) {
  double n = 0;
  for (LinkComponent* l : wan_links(sc)) n += static_cast<double>(l->active_transfers());
  return n;
}

/// Work counts read after a run through public accessors.
Counts read_counts(GdiSimulator& sim) {
  Counts c;
  const SchedulerStats& st = sim.loop().scheduler_stats();
  c.ticks = static_cast<double>(st.iterations);
  c.agent_phases = static_cast<double>(st.agent_phase_runs);
  for (const char* g : kRunGroups) c.runs[g] = 0;
  for (AgentId id = 0; id < st.per_agent_runs.size(); ++id) {
    c.runs[run_group(sim.loop().agent(id)->name())] += static_cast<double>(st.per_agent_runs[id]);
  }
  Scenario& sc = sim.scenario();
  for (LinkComponent* l : wan_links(sc)) c.wan_transfers += static_cast<double>(l->completed_transfers());
  for (auto& p : sc.populations) c.ops_completed += static_cast<double>(p->completed_operations());
  for (auto& l : sc.launchers) c.ops_completed += static_cast<double>(l->series_completed());
  for (auto& d : sc.synchreps) c.synchrep_runs += static_cast<double>(d->ledger().runs().size());
  for (auto& d : sc.indexbuilds) c.indexbuild_runs += static_cast<double>(d->ledger().runs().size());
  for (std::size_t i = 0; i < sim.collector().probe_count(); ++i) {
    c.samples += static_cast<double>(sim.collector().series(i).size());
  }
  return c;
}

const TimeSeries& series(GdiSimulator& sim, const std::string& label) {
  const TimeSeries* s = sim.collector().find(label);
  if (s == nullptr || s->empty()) throw std::runtime_error("missing series " + label);
  return *s;
}

// ---------------------------------------------------------------------------
// Consolidated infrastructure (thesis Ch. 6), one simulated day.

constexpr double kDaySeconds = 24.0 * 3600.0;

struct Reference {
  const char* label;
  double paper_pct;
};
/// Fig 6-12: D_NA tier peaks (hourly means).
const Reference kTierPeaks[] = {
    {"cpu/NA/app", 73}, {"cpu/NA/db", 32}, {"cpu/NA/idx", 30}, {"cpu/NA/fs", 31}};
/// Table 6.1: WAN utilization of the allocated capacity, 12:00-16:00 GMT.
const Reference kWanMeans[] = {
    {"net/NA->SA", 48},  {"net/NA->EU", 43},   {"net/NA->AS1", 59},  {"net/EU->AFR", 0},
    {"net/EU->AS1", 0},  {"net/AS1->AFR", 53}, {"net/AS1->AS2", 47}, {"net/AS1->AUS", 54}};

double hourly_peak_pct(const TimeSeries& s) {
  double peak = 0.0;
  for (int h = 0; h < 24; ++h) peak = std::max(peak, s.mean_between(h * 3600.0, (h + 1) * 3600.0));
  return 100.0 * peak;
}

/// Paper-shape gate and thesis error of a finished consolidated day.
/// `table_scale`: the day ran at the 0.1 scale EXPERIMENTS.md's tables were
/// recorded at, so their bands apply. At scale 1.0 the WAN keeps its thesis
/// capacity while traffic grows tenfold: the NA trunks saturate and D_NA
/// sees less load, so only the orderings that hold at both scales are gated
/// there (thesis_err_pp still reports the distance to the paper).
void check_consolidated(GdiSimulator& sim, bool table_scale, UnitResult& r) {
  auto require = [&r](bool ok, const std::string& what) {
    if (!ok) r.gate_failures.push_back(what);
  };
  std::vector<double> errors;
  std::map<std::string, double> peak, wan;
  std::cout << "thesis values, sim/paper %:";
  for (const Reference& ref : kTierPeaks) {
    peak[ref.label] = hourly_peak_pct(series(sim, ref.label));
    errors.push_back(std::fabs(peak[ref.label] - ref.paper_pct));
    std::cout << " " << ref.label << " " << peak[ref.label] << "/" << ref.paper_pct;
  }
  for (const Reference& ref : kWanMeans) {
    wan[ref.label] = 100.0 * series(sim, ref.label).mean_between(12 * 3600.0, 16 * 3600.0);
    errors.push_back(std::fabs(wan[ref.label] - ref.paper_pct));
    std::cout << " " << ref.label << " " << wan[ref.label] << "/" << ref.paper_pct;
  }
  std::cout << "\n";
  r.err_pp = mean(errors);

  const double app = peak["cpu/NA/app"];
  for (const char* t : {"cpu/NA/db", "cpu/NA/idx", "cpu/NA/fs"}) {
    require(peak[t] < app, std::string(t) + " peak not below T_app");
  }
  // NA->AS1 carries the pushes to four data centers: the busiest link (ties
  // within 1 pp allowed, as saturated trunks all read 100%).
  for (const Reference& ref : kWanMeans) {
    require(wan[ref.label] <= wan["net/NA->AS1"] + 1.0,
            std::string(ref.label) + " busier than NA->AS1");
  }
  for (const char* backup : {"net/EU->AFR", "net/EU->AS1"}) {
    require(series(sim, backup).max_value() == 0.0, std::string(backup) + " backup link carried traffic");
  }
  if (!table_scale) return;
  require(std::fabs(app - 73.0) <= 10.0, "D_NA T_app peak " + std::to_string(app) + "% not near 73%");
  require(std::fabs(wan["net/NA->EU"] - 43.0) <= 10.0, "NA->EU not near 43%");
  for (const char* spoke : {"net/AS1->AFR", "net/AS1->AS2", "net/AS1->AUS"}) {
    require(wan[spoke] >= 30.0 && wan[spoke] <= 65.0, std::string(spoke) + " outside 30-65%");
  }
}

/// `burst`: the set-up burst precedes the day and its last simulator runs
/// the day; otherwise the day's one set-up is timed into the traced figures.
UnitResult run_consolidated_day(double scale, std::uint64_t seed, bool burst, Tracer& tracer) {
  UnitResult r;
  const int unit_span = tracer.begin("unit.consolidated_day");
  GlobalOptions opt;
  opt.scale = scale;
  opt.seed = seed;
  SimulatorConfig cfg;
  cfg.threads = 0;
  cfg.collect_every_s = 30.0;

  std::unique_ptr<GdiSimulator> sim;
  auto make = [&opt](int) { return make_consolidated_scenario(opt); };
  if (burst) {
    r.setup_s = set_up_burst(kDayBurstSetUps, make, cfg, sim);
  } else {
    timed_set_up([&make] { return make(0); }, cfg, tracer, unit_span, r, sim);
  }

  if (tracer.on()) install_timed_collect(*sim, &r.collect_s);
  const double cpu0 = process_cpu_seconds();
  const Clock::time_point t0 = Clock::now();
  if (!tracer.on()) {
    sim->run_until_seconds(kDaySeconds);
  } else {
    // One run call per simulated hour; chunking leaves results unchanged.
    for (int h = 1; h <= 24; ++h) {
      const int span = tracer.begin("sim.hour." + std::to_string(h - 1), unit_span);
      sim->run_until_seconds(h * 3600.0);
      const double d = tracer.end(span);
      r.run_s += d;
      if (h >= 13 && h <= 16) r.peak_h_s.push_back(d);
      if (h >= 22) r.trough_h_s.push_back(d);
      r.counts.wan_flows_peak = std::max(r.counts.wan_flows_peak, wan_active(sim->scenario()));
    }
  }
  const int read_span = tracer.begin("readout", unit_span);
  r.fingerprint = result_fingerprint(*sim);
  check_consolidated(*sim, scale < 1.0, r);
  if (tracer.on()) {
    const double flows_peak = r.counts.wan_flows_peak;
    r.counts = read_counts(*sim);
    r.counts.wan_flows_peak = flows_peak;
  }
  tracer.end(read_span);
  r.wall_s = seconds_since(t0);
  r.cpu_s = process_cpu_seconds() - cpu0;
  tracer.end(unit_span);
  return r;
}

// ---------------------------------------------------------------------------
// Ch. 5 single-DC validation: one round = experiments 1-3 at one replica
// seed, each over the thesis' 38-minute window with a fresh scenario and
// simulator.

constexpr double kValidationHorizon = 38.0 * 60.0;
/// Steady-state window of Table 5.2 (the first and last 4 minutes excluded).
constexpr double kSteadyFrom = 4.0 * 60.0;
constexpr double kSteadyTo = kValidationHorizon - 4.0 * 60.0;
const char* const kValidationTiers[4] = {"cpu/NA/app", "cpu/NA/db", "cpu/NA/fs", "cpu/NA/idx"};
/// Table 5.2 physical mean utilization (%) per experiment: app, db, fs, idx.
const double kTable52[3][4] = {{55.84, 39.04, 40.60, 19.04},
                               {71.60, 49.20, 49.87, 29.20},
                               {81.81, 57.20, 56.68, 36.99}};
/// Rounds whose tier means make up thesis_err_pp; every run completes them,
/// so the error depends on the seed only, never on host speed.
constexpr std::size_t kErrorRounds = 8;

ValidationOptions validation_options(int experiment, std::uint64_t replica_seed) {
  ValidationOptions opt;
  opt.experiment = experiment;
  opt.seed = replica_seed;
  opt.stop_launch_s = kValidationHorizon - 3.0 * 60.0;
  return opt;
}

/// `burst`: the round opens with the set-up burst, cycling through
/// experiments 1-3. Its set-ups run back to back on a warm heap and warm
/// caches; each set-up inside a round follows a run and costs about 2.5
/// times as much, which wall_s includes.
UnitResult run_validation_round(std::uint64_t replica_seed, bool burst, Tracer& tracer) {
  UnitResult r;
  const int unit_span = tracer.begin("unit.validation_round");
  SimulatorConfig cfg;
  cfg.threads = 0;
  cfg.collect_every_s = 6.0;
  auto require = [&r](bool ok, const std::string& what) {
    if (!ok) r.gate_failures.push_back(what);
  };

  std::unique_ptr<GdiSimulator> sim;
  if (burst) {
    r.setup_s = set_up_burst(
        kValidationBurstSetUps,
        [replica_seed](int i) {
          return make_validation_scenario(validation_options(1 + i % 3, replica_seed));
        },
        cfg, sim);
  }

  std::uint64_t fold = 0xcbf29ce484222325ULL;
  double cpu0 = 0.0;
  Clock::time_point t0{};
  for (int exp = 1; exp <= 3; ++exp) {
    const int replica_span = tracer.begin("sim.replica.exp" + std::to_string(exp), unit_span);
    const ValidationOptions opt = validation_options(exp, replica_seed);
    timed_set_up([&opt] { return make_validation_scenario(opt); }, cfg, tracer, replica_span, r,
                 sim);
    if (exp == 1) {
      cpu0 = process_cpu_seconds();
      t0 = Clock::now();
    }

    double collect_s = 0.0;
    if (tracer.on()) install_timed_collect(*sim, &collect_s);
    const int run_span = tracer.begin("sim.run", replica_span);
    sim->run_until_seconds(kValidationHorizon);
    r.run_s += tracer.end(run_span);
    r.collect_s += collect_s;

    const int read_span = tracer.begin("readout", replica_span);
    const std::uint64_t fp = result_fingerprint(*sim);
    fold = (fold ^ fp) * 0x100000001b3ULL;
    double mu[4];
    for (int t = 0; t < 4; ++t) {
      mu[t] = 100.0 * series(*sim, kValidationTiers[t]).mean_between(kSteadyFrom, kSteadyTo);
      r.tier_means.push_back(mu[t]);
    }
    const std::string tag = "exp" + std::to_string(exp) + ": ";
    require(mu[0] > mu[1], tag + "T_app not above T_db");
    require(mu[2] > mu[3], tag + "T_fs not above T_idx");
    require(std::fabs(mu[0] - kTable52[exp - 1][0]) <= 15.0, tag + "T_app not within 15 pp of Table 5.2");
    if (tracer.on()) r.counts.add(read_counts(*sim));
    tracer.end(read_span);
    r.replica_s.push_back(tracer.end(replica_span));
  }
  require(r.tier_means[8] > r.tier_means[0], "experiment 3 does not load T_app hardest");
  r.fingerprint = fold;
  r.wall_s = seconds_since(t0);
  r.cpu_s = process_cpu_seconds() - cpu0;
  tracer.end(unit_span);
  return r;
}

// ---------------------------------------------------------------------------
// Microbenchmarks of the queueing disciplines and the inbox (traced run).

constexpr int kMicroRepeats = 5;

/// Keeps `jobs` jobs in `q`, re-enqueueing one per completion; returns the
/// median ns per job-tick (a job present during one advance) over repeats.
template <typename Queue, typename Advance>
double job_tick_ns(Queue& q, std::size_t jobs, double mean_work, double job_ticks_per_repeat,
                   Uniform& u, Advance&& advance) {
  auto draw = [&]() { return mean_work * (0.5 + u.next()); };
  for (std::size_t i = 0; i < jobs; ++i) q.enqueue(draw(), nullptr);
  std::vector<double> ns;
  for (int rep = 0; rep < kMicroRepeats; ++rep) {
    double job_ticks = 0;
    const Clock::time_point t0 = Clock::now();
    while (job_ticks < job_ticks_per_repeat) {
      job_ticks += static_cast<double>(q.total_jobs());
      const std::size_t done = advance(q);
      for (std::size_t i = 0; i < done; ++i) q.enqueue(draw(), nullptr);
    }
    ns.push_back(1e9 * seconds_since(t0) / job_ticks);
  }
  return median(ns);
}

/// WAN-like PS link: 50 ms ticks, 100 ms latency, each flow lasting ~40 ticks.
double ps_job_tick_ns(std::size_t flows, Uniform& u) {
  const double rate = 1e9;
  PsQueue q(rate, 0, 0.1);
  std::vector<JobCtx> done;
  return job_tick_ns(q, flows, rate / static_cast<double>(flows) * 0.05 * 40.0, 4e6, u,
                     [&done](PsQueue& pq) {
                       pq.advance(0.05, done);
                       return done.size();
                     });
}

/// CPU tier: 8 cores, 10 ms ticks, 24 jobs present, ~5 ticks of work each.
double fcfs_job_tick_ns(Uniform& u) {
  FcfsMultiServerQueue q(8, 1e9);
  std::vector<JobCtx> done;
  return job_tick_ns(q, 24, 1e9 * 0.01 * 5.0, 4e6, u, [&done](FcfsMultiServerQueue& fq) {
    fq.advance(0.01, done);
    return done.size();
  });
}

/// Inbox<StageJob> post + drain_visible_into, ns per delivery: batches of
/// 64 deliveries from 32 senders, drained the tick they become visible. The
/// inbox runs in serial mode (one shard, no locks), the mode every serial
/// workload runs its component inboxes in.
double inbox_delivery_ns(Uniform& u) {
  Inbox<StageJob> inbox;
  inbox.set_serial(true);
  std::vector<Delivery<StageJob>> ready;
  std::vector<double> ns;
  std::uint64_t seq = 0;
  Tick t = 0;
  for (int rep = 0; rep < kMicroRepeats; ++rep) {
    double delivered = 0;
    const Clock::time_point t0 = Clock::now();
    while (delivered < 1e6) {
      for (int i = 0; i < 64; ++i) {
        StageJob job;
        job.work = u.next();
        job.tag = seq;
        inbox.post(t + 1, static_cast<AgentId>((seq * 7) % 32), seq, job);
        ++seq;
      }
      ++t;
      inbox.drain_visible_into(t, ready);
      delivered += static_cast<double>(ready.size());
    }
    ns.push_back(1e9 * seconds_since(t0) / delivered);
  }
  return median(ns);
}

// ---------------------------------------------------------------------------
// Output.

class Metrics {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    entries_.push_back({name, value, unit});
  }
  std::string json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.17g", entries_[i].value);
      out += (i > 0 ? ", \"" : "\"") + entries_[i].name + "\": {\"value\": " + buf +
             ", \"unit\": \"" + entries_[i].unit + "\"}";
    }
    return out + "}";
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

struct Args {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 20.0;
  bool trace = false;
  std::string spans_path;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "gdibench: " << why
            << "\nusage: gdibench --workload consolidated_day|consolidated_small|"
               "validation_replicas --seed N --seconds S --trace 0|1 [--spans PATH]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      a.workload = value;
    } else if (arg == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || value[0] == '-' || *end != '\0') usage("bad --seed " + value);
    } else if (arg == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(a.seconds > 0.0) || a.seconds > 3600.0) {
        usage("bad --seconds " + value);
      }
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") usage("bad --trace " + value);
      a.trace = value == "1";
    } else if (arg == "--spans") {
      a.spans_path = value;
    } else {
      usage("unknown argument " + arg);
    }
  }
  if (a.workload != "consolidated_day" && a.workload != "consolidated_small" &&
      a.workload != "validation_replicas") {
    usage("unknown workload '" + a.workload + "'");
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const bool validation = args.workload == "validation_replicas";
  const double scale = args.workload == "consolidated_day" ? 1.0 : 0.1;
  const std::size_t min_units = validation ? kErrorRounds : 1;

  Tracer off(false);
  Tracer tracer(args.trace);
  auto run_unit = [&](std::size_t index, Tracer& t) {
    // Consolidated units repeat the workload seed (same inputs, so the
    // fingerprint must repeat); validation rounds draw fresh replica seeds.
    const bool burst = index == 0 && !t.on();
    return validation ? run_validation_round(splitmix64(args.seed * 1000003ULL + index), burst, t)
                      : run_consolidated_day(scale, args.seed, burst, t);
  };

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<UnitResult> plain, traced;
  std::map<std::size_t, std::uint64_t> fingerprints;  // unit index -> untraced fingerprint
  auto attempt = [&](std::size_t index, bool with_trace) {
    ++attempted;
    try {
      UnitResult r = run_unit(index, with_trace ? tracer : off);
      bool ok = r.gate_failures.empty();
      for (const std::string& f : r.gate_failures) std::cerr << "gate: " << f << "\n";
      const std::uint64_t key = validation ? index : 0;
      if (!with_trace && fingerprints.count(key) == 0) fingerprints[key] = r.fingerprint;
      if (fingerprints.count(key) != 0 && fingerprints[key] != r.fingerprint) {
        std::cerr << "unit " << index << (with_trace ? " (traced)" : "") << ": fingerprint "
                  << hex64(r.fingerprint) << " differs from " << hex64(fingerprints[key]) << "\n";
        ok = false;
      }
      std::cout << "unit " << index << (with_trace ? " traced" : "") << ": wall "
                << r.wall_s << " s, fingerprint " << hex64(r.fingerprint);
      // The burst's first set-up meets a cold heap: shown, not measured.
      if (!r.setup_s.empty()) {
        std::cout << ", first set-up " << r.setup_s.front() << " s, median " << median(r.setup_s)
                  << " s";
      }
      std::cout << (ok ? "" : " FAILED") << "\n";
      if (!ok) ++failed;
      (with_trace ? traced : plain).push_back(std::move(r));
    } catch (const std::exception& e) {
      std::cerr << "unit " << index << ": " << e.what() << "\n";
      ++failed;
    }
  };

  // Whole units until the budget is spent: another one starts only if it is
  // expected to finish inside the budget. The traced run interleaves an
  // untraced and a traced copy of each unit, so host drift hits both alike.
  const Clock::time_point start = Clock::now();
  std::size_t index = 0;
  for (;;) {
    const Clock::time_point t0 = Clock::now();
    attempt(index, false);
    if (args.trace) attempt(index, true);
    ++index;
    const double last = seconds_since(t0);
    if (index >= min_units && seconds_since(start) + last > args.seconds) break;
  }

  if (plain.empty() || (args.trace && traced.empty())) {
    std::cerr << "gdibench: no unit completed\n";
    return 1;
  }

  auto collect = [](const std::vector<UnitResult>& units, auto field) {
    std::vector<double> v;
    for (const UnitResult& u : units) {
      const auto& x = u.*field;
      if constexpr (std::is_same_v<std::decay_t<decltype(x)>, double>) {
        v.push_back(x);
      } else {
        v.insert(v.end(), x.begin(), x.end());
      }
    }
    return v;
  };

  Metrics m;
  if (!args.trace) {
    double err_pp = plain.front().err_pp;
    if (validation) {
      // Table 5.2 error of the replica-averaged tier means.
      std::vector<double> errors;
      const std::size_t rounds = std::min(plain.size(), kErrorRounds);
      for (int k = 0; k < 12; ++k) {
        double sum = 0.0;
        for (std::size_t i = 0; i < rounds; ++i) sum += plain[i].tier_means[static_cast<std::size_t>(k)];
        errors.push_back(std::fabs(sum / static_cast<double>(rounds) - kTable52[k / 4][k % 4]));
      }
      err_pp = mean(errors);
    }
    m.add("wall_s", median(collect(plain, &UnitResult::wall_s)), "s");
    m.add("cpu_s", median(collect(plain, &UnitResult::cpu_s)), "s");
    m.add("setup_s", median(collect(plain, &UnitResult::setup_s)), "s");
    m.add("peak_rss_mb", peak_rss_mb(), "MB");
    m.add("thesis_err_pp", err_pp, "pp");
  } else {
    const std::uint64_t micro_seed = splitmix64(args.seed ^ 0x5eedULL);
    Uniform u(micro_seed);
    const Counts& c = traced.front().counts;
    const double plain_wall = median(collect(plain, &UnitResult::wall_s));
    const double traced_wall = median(collect(traced, &UnitResult::wall_s));
    std::vector<double> ns_per_phase;
    for (const UnitResult& r : traced) {
      if (r.counts.agent_phases > 0) ns_per_phase.push_back(1e9 * r.run_s / r.counts.agent_phases);
    }
    m.add("config.build_s", median(collect(traced, &UnitResult::build_s)), "s");
    m.add("sim.construct_s", median(collect(traced, &UnitResult::construct_s)), "s");
    m.add("sim.peak_h_s", median(collect(traced, &UnitResult::peak_h_s)), "s");
    m.add("sim.trough_h_s", median(collect(traced, &UnitResult::trough_h_s)), "s");
    m.add("sim.replica_s", median(collect(traced, &UnitResult::replica_s)), "s");
    m.add("core.ticks", c.ticks, "count");
    m.add("core.agent_phases", c.agent_phases, "count");
    m.add("core.mean_active", c.ticks > 0 ? c.agent_phases / c.ticks : 0.0, "agents");
    m.add("core.ns_per_agent_phase", median(ns_per_phase), "ns");
    for (const char* g : kRunGroups) m.add(std::string("core.runs.") + g, c.runs.at(g), "count");
    m.add("core.inbox_delivery_ns", inbox_delivery_ns(u), "ns");
    m.add("queueing.ps_job_tick_ns.f10", ps_job_tick_ns(10, u), "ns");
    m.add("queueing.ps_job_tick_ns.f130", ps_job_tick_ns(130, u), "ns");
    m.add("queueing.ps_job_tick_ns.f1000", ps_job_tick_ns(1000, u), "ns");
    m.add("queueing.fcfs_job_tick_ns", fcfs_job_tick_ns(u), "ns");
    m.add("hardware.wan_flows_peak", c.wan_flows_peak, "count");
    m.add("hardware.wan_transfers", c.wan_transfers, "count");
    m.add("software.ops_completed", c.ops_completed, "count");
    m.add("background.synchrep_runs", c.synchrep_runs, "count");
    m.add("background.indexbuild_runs", c.indexbuild_runs, "count");
    m.add("metrics.collect_s", median(collect(traced, &UnitResult::collect_s)), "s");
    m.add("metrics.samples", c.samples, "count");
    m.add("trace.overhead_pct", 100.0 * (traced_wall / plain_wall - 1.0), "%");
    if (!args.spans_path.empty()) {
      if (!tracer.write(args.spans_path)) {
        std::cerr << "gdibench: cannot write " << args.spans_path << "\n";
        return 1;
      }
      std::cout << "wrote " << tracer.size() << " spans to " << args.spans_path << "\n";
    }
  }

  std::cout << "{\"correct\": " << (failed == 0 ? "true" : "false") << ", \"attempted\": "
            << attempted << ", \"failed\": " << failed << ", \"metrics\": " << m.json() << "}"
            << std::endl;
  return 0;
}
