// One checked reproduction of the thesis evaluation: the Ch. 5 validation,
// the Ch. 6 consolidation and Ch. 7 multiple-master case studies, and the
// ablations of the design choices DESIGN.md calls out.
//
//   build/bench/gdisim_repro > repro.md
//
// Every distinct simulation runs once and every table and figure is derived
// from those runs. A table that reads a scenario at an earlier horizon reads
// the one run as it passes that horizon, and a table of 60 s samples reads
// the 30 s run through every_60s(). Each thesis number is then checked
// against its row of check_table().
//
// stdout is one Markdown document: the checked summary between the repro
// markers (EXPERIMENTS.md carries that block verbatim), then the full
// listings. It holds no wall-clock figure, so two runs print the same bytes.
// Exit status: 0 when every row passes or is a known deviation, 1 when a row
// misses its band or a known deviation lands in band, 2 on any argument.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "background/file_tracker.h"
#include "core/rng.h"
#include "metrics/report.h"
#include "metrics/stats.h"
#include "queueing/analytic.h"
#include "queueing/kendall.h"
#include "repro_check.h"
#include "sim/gdisim.h"

using namespace gdisim;
using repro::Check;
using repro::Measurements;

namespace {

// ---------------------------------------------------------------------------
// Thesis values the listings print and the check table reads.

const char* const kCadOps[8] = {"CAD.LOGIN",  "CAD.TEXT-SEARCH", "CAD.FILTER",
                                "CAD.EXPLORE", "CAD.SPATIAL-SEARCH", "CAD.SELECT",
                                "CAD.OPEN",   "CAD.SAVE"};
const char* const kSeries[3] = {"Light", "Average", "Heavy"};
/// Table 5.1: canonical duration (s) per series.
constexpr double kTable51[8][3] = {{1.94, 2.2, 2.35},    {4.9, 5.11, 4.99},
                                   {2.89, 2.6, 3.0},     {6.6, 6.43, 5.92},
                                   {12.18, 12.15, 12.38}, {5.7, 6.2, 5.34},
                                   {30.67, 64.68, 96.48}, {36.8, 78.21, 113.01}};
constexpr double kTable51Total[3] = {101.68, 177.58, 243.47};

const char* const kTiers[4] = {"T_app", "T_db", "T_fs", "T_idx"};
const char* const kTierLabels[4] = {"cpu/NA/app", "cpu/NA/db", "cpu/NA/fs", "cpu/NA/idx"};
/// Table 5.2: physical mean utilization (%) per experiment.
constexpr double kTable52[3][4] = {{55.84, 39.04, 40.60, 19.04},
                                   {71.60, 49.20, 49.87, 29.20},
                                   {81.81, 57.20, 56.68, 36.99}};

const char* const kLinks[8] = {"NA->SA",  "NA->EU",   "NA->AS1",  "EU->AFR",
                               "EU->AS1", "AS1->AFR", "AS1->AS2", "AS1->AUS"};
/// Tables 6.1 and 7.3: mean utilization of the allocated capacity (%),
/// 12:00-16:00 GMT.
constexpr double kTable61[8] = {48, 43, 59, 0, 0, 53, 47, 54};
constexpr double kTable73[8] = {53, 51, 76, 0, 0, 67, 56, 66};
/// Table 6.2: CAD latency penalty in D_AUS (% of R_NA), in kCadOps order.
constexpr double kTable62[8] = {64.54, 27.39, 53.84, 141.52, 80.65, 79.03, 1.08, 0.89};
/// Figs 6-5..6-7: global peak of logged-in clients at scale 1.0.
const std::pair<const char*, double> kAppPeaks[3] = {{"CAD", 2000}, {"VIS", 2500}, {"PDM", 1400}};
/// Fig 6-11: peak pull+push volume of one SYNCHREP run at scale 1.0 (MB).
constexpr double kSyncPeakMb = 14250;

/// The Ch. 6/7 tables' scale: one tenth of the thesis populations.
constexpr double kTableScale = 0.10;

constexpr double kValidationHorizon = 38.0 * 60.0;
constexpr double kHour = 3600.0;

// ---------------------------------------------------------------------------
// The check table.

struct Section {
  std::string title;
  std::vector<Check> rows;
};

/// Rows the code misses today, by row_id(). Each prints its number and does
/// not fail the run; a row that lands in band fails it until it leaves this
/// list.
const std::set<std::string> kKnownDeviations = {
    // Metadata operations run 7-25% long (DESIGN.md §1 calibrates the
    // catalog to this table).
    "Table 5.1: CAD.LOGIN Light (s)",
    "Table 5.1: CAD.TEXT-SEARCH Light (s)",
    "Table 5.1: CAD.TEXT-SEARCH Average (s)",
    "Table 5.1: CAD.TEXT-SEARCH Heavy (s)",
    "Table 5.1: CAD.FILTER Light (s)",
    "Table 5.1: CAD.FILTER Average (s)",
    "Table 5.1: CAD.SELECT Light (s)",
    "Table 5.1: CAD.SELECT Average (s)",
    "Table 5.1: CAD.SELECT Heavy (s)",
    // Fewer series in flight: ours queue less than the physical system's
    // (Little's law on the Table 5.1 durations).
    "Fig 5-6: Exp-1 steady-state clients",
    "Fig 5-6: Exp-3 steady-state clients",
    // The reference run differs from the simulated one only by seed and
    // profiler noise: most errors land below the thesis' bands, T_fs above.
    "Table 5.3: Exp-1 CPU T_app RMSE (%)",
    "Table 5.3: Exp-1 CPU T_idx RMSE (%)",
    "Table 5.3: Exp-1 clients RMSE (%)",
    "Table 5.3: Exp-1 response RMSE (%)",
    "Table 5.3: Exp-2 CPU T_fs RMSE (%)",
    "Table 5.3: Exp-2 clients RMSE (%)",
    "Table 5.3: Exp-2 response RMSE (%)",
    "Table 5.3: Exp-3 CPU T_db RMSE (%)",
    "Table 5.3: Exp-3 CPU T_fs RMSE (%)",
    "Table 5.3: Exp-3 response RMSE (%)",
    // The generator's curves peak below the figures' scaled peaks, and the
    // growth magnitude sits ~2x above Fig 6-11's.
    "Figs 6-5..6-7: CAD global peak (clients)",
    "Figs 6-5..6-7: VIS global peak (clients)",
    "Figs 6-5..6-7: PDM global peak (clients)",
    "Figs 6-10/6-11: peak pull+push per run (MB)",
    "Table 6.1: NA->SA (%)",
    "Fig 6-14: R_IB^max (min)",
    "Table 6.2: CAD.LOGIN AUS penalty (%)",
    "Sec. 7.4.1: D_EU T_db peak (%)",
    // Multiple master: client traffic shrinks more than six concurrent
    // SYNCHREPs add, so most links fall against Table 6.1.
    "Table 7.3: NA->SA (%)",
    "Table 7.3: NA->EU (%)",
    "Table 7.3: NA->AS1 (%)",
    "Table 7.3: AS1->AFR (%)",
    "Table 7.3: AS1->AS2 (%)",
    "Table 7.3: AS1->AUS (%)",
    "Table 7.3: NA->SA (%) > Table 6.1: NA->SA (%)",
    "Table 7.3: NA->EU (%) > Table 6.1: NA->EU (%)",
    "Table 7.3: NA->AS1 (%) > Table 6.1: NA->AS1 (%)",
    "Table 7.3: AS1->AFR (%) > Table 6.1: AS1->AFR (%)",
    "Fig 7-6: single-master SR longest run (min)",
    "Fig 7-6: multiple-master SR longest run (min)",
    "Fig 7-6: single-master IB longest run (min)",
    "Fig 7-6: multiple-master IB longest run (min)",
    "Fig 7-6: multiple-master R_SR^max (min)",
    "Fig 7-6: multiple-master R_IB^max (min)",
    "Sub-tick: LOGIN mean, largest shift from 0.25x (%)",
    "Caching: SAVE mean at 0% hits (s) > Caching: SAVE mean at 90% hits (s)",
    "Fig 2-11: M/M/c E[N], largest error vs Erlang C (%)",
};

std::string num(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

std::string at(const std::string& ref, const std::string& what) { return ref + ": " + what; }

/// How kKnownDeviations names a row: its key, and for an ordering row what
/// the row must exceed.
std::string row_id(const Check& c) {
  std::string id = repro::key(c);
  for (std::size_t i = 0; i < c.above.size(); ++i) {
    id += (i == 0 ? " > " : ", ") + c.above[i];
  }
  return id;
}

/// paper ± pp, for a percentage.
Check points(std::string ref, std::string what, double paper, double pp, int digits = 1) {
  return {std::move(ref), std::move(what), num(paper), paper - pp, paper + pp, {}, 0.0, digits};
}

/// paper ± frac × paper.
Check relative(std::string ref, std::string what, double paper, double frac, int digits = 1) {
  return {std::move(ref), std::move(what), num(paper), paper * (1.0 - frac),
          paper * (1.0 + frac), {}, 0.0, digits};
}

Check range(std::string ref, std::string what, std::string paper, double lo, double hi,
            int digits = 1) {
  return {std::move(ref), std::move(what), std::move(paper), lo, hi, {}, 0.0, digits};
}

/// The row's quantity must exceed each of `rivals` (keys) less `tol`.
Check above(std::string ref, std::string what, std::string paper,
            std::vector<std::string> rivals, double tol = 0.0, int digits = 1) {
  return {std::move(ref), std::move(what), std::move(paper), 0.0, 0.0, std::move(rivals),
          tol, digits};
}

std::string op_series(int op, int series) {
  return std::string(kCadOps[op]) + " " + kSeries[series] + " (s)";
}
std::string tier_mean(int exp, int tier) {
  return "Exp-" + std::to_string(exp) + " " + kTiers[tier] + " mu (%)";
}
std::string link_pct(int link) { return std::string(kLinks[link]) + " (%)"; }
bool is_spoke(int link) { return link >= 5; }
bool is_backup(int link) { return link == 3 || link == 4; }

std::vector<Section> check_table() {
  // Bands: EXPERIMENTS.md's and perfbench's where they state one (Table 5.1
  // within 6%, Table 5.2 within 15 pp, T_app peak and NA->EU within 10 pp,
  // AS1 spokes 30-65%, NA->AS1 busiest with 1 pp ties, backups at 0); else
  // ±10 pp for a utilization and ±15% for a count, volume or duration.
  Section ch5{"Chapter 5 — validation", {}};
  for (int op = 0; op < 8; ++op) {
    for (int s = 0; s < 3; ++s) {
      ch5.rows.push_back(relative("Table 5.1", op_series(op, s), kTable51[op][s], 0.06, 2));
    }
  }
  for (int s = 0; s < 3; ++s) {
    ch5.rows.push_back(relative("Table 5.1", std::string("TOTAL ") + kSeries[s] + " (s)",
                                kTable51Total[s], 0.06, 2));
  }
  ch5.rows.push_back(relative("Fig 5-6", "Exp-1 steady-state clients", 22, 0.15));
  ch5.rows.push_back(relative("Fig 5-6", "Exp-3 steady-state clients", 35, 0.15));
  ch5.rows.push_back(above("Fig 5-6", "Exp-3 steady-state clients", "~35 > ~22",
                           {at("Fig 5-6", "Exp-1 steady-state clients")}));
  for (int e = 1; e <= 3; ++e) {
    for (int t = 0; t < 4; ++t) {
      ch5.rows.push_back(points("Table 5.2", tier_mean(e, t), kTable52[e - 1][t], 15.0));
    }
    ch5.rows.push_back(above("Table 5.2", tier_mean(e, 0),
                             num(kTable52[e - 1][0]) + " > " + num(kTable52[e - 1][1]),
                             {at("Table 5.2", tier_mean(e, 1))}));
    ch5.rows.push_back(above("Table 5.2", tier_mean(e, 2),
                             num(kTable52[e - 1][2]) + " > " + num(kTable52[e - 1][3]),
                             {at("Table 5.2", tier_mean(e, 3))}));
  }
  ch5.rows.push_back(above("Table 5.2", tier_mean(3, 0), "hardest-loaded experiment",
                           {at("Table 5.2", tier_mean(1, 0)), at("Table 5.2", tier_mean(2, 0))}));
  ch5.rows.push_back(range("Sec. 5.3.3", "largest model peak / pool (%)",
                           "orders of magnitude below", 0.0, 1.0, 2));
  for (int e = 1; e <= 3; ++e) {
    const std::string exp = "Exp-" + std::to_string(e) + " ";
    for (int t = 0; t < 4; ++t) {
      ch5.rows.push_back(
          range("Table 5.3", exp + "CPU " + kTiers[t] + " RMSE (%)", "5-13", 5.0, 13.0));
    }
    ch5.rows.push_back(range("Table 5.3", exp + "clients RMSE (%)", "5.1-6.5", 5.1, 6.5));
    ch5.rows.push_back(range("Table 5.3", exp + "response RMSE (%)", "5.0-6.9", 5.0, 6.9));
  }

  Section ch6{"Chapter 6 — consolidation (scale 0.1)", {}};
  for (const auto& [app, peak] : kAppPeaks) {
    ch6.rows.push_back(relative("Figs 6-5..6-7", std::string(app) + " global peak (clients)",
                                peak * kTableScale, 0.15, 0));
  }
  ch6.rows.push_back(relative("Figs 6-10/6-11", "peak pull+push per run (MB)",
                              kSyncPeakMb * kTableScale, 0.15, 0));
  ch6.rows.push_back(points("Fig 6-12", "D_NA T_app peak (%)", 73, 10));
  ch6.rows.push_back(above("Fig 6-12", "D_NA T_app peak (%)", "hottest tier",
                           {at("Fig 6-12", "D_NA T_db peak (%)"),
                            at("Fig 6-12", "D_NA T_idx peak (%)"),
                            at("Fig 6-12", "D_NA T_fs peak (%)")}));
  std::vector<std::string> others61;
  for (int l = 0; l < 8; ++l) {
    const std::string what = link_pct(l);
    if (is_spoke(l)) {
      ch6.rows.push_back(range("Table 6.1", what, num(kTable61[l]), 30.0, 65.0));
    } else {
      ch6.rows.push_back(points("Table 6.1", what, kTable61[l], is_backup(l) ? 0.0 : 10.0));
    }
    if (l != 2) others61.push_back(at("Table 6.1", what));
  }
  ch6.rows.push_back(above("Table 6.1", link_pct(2), "busiest", others61, 1.0));
  ch6.rows.push_back(relative("Fig 6-14", "R_SR^max (min)", 31, 0.15, 2));
  ch6.rows.push_back(relative("Fig 6-14", "R_IB^max (min)", 63, 0.15, 2));
  for (int op = 0; op < 8; ++op) {
    ch6.rows.push_back(
        points("Table 6.2", std::string(kCadOps[op]) + " AUS penalty (%)", kTable62[op], 10));
  }

  Section ch7{"Chapter 7 — multiple master (scale 0.1)", {}};
  ch7.rows.push_back(points("Figs 7-4/7-5", "D_NA peak-volume reduction (%)", 43, 10));
  ch7.rows.push_back(points("Sec. 7.4.1", "D_NA T_app peak (%)", 78, 10));
  ch7.rows.push_back(points("Sec. 7.4.1", "D_NA T_db peak (%)", 39, 10));
  ch7.rows.push_back(points("Sec. 7.4.1", "D_EU T_app peak (%)", 57, 10));
  ch7.rows.push_back(points("Sec. 7.4.1", "D_EU T_db peak (%)", 48, 10));
  std::vector<std::string> others73;
  for (int l = 0; l < 8; ++l) {
    ch7.rows.push_back(
        points("Table 7.3", link_pct(l), kTable73[l], is_backup(l) ? 0.0 : 10.0));
    if (l != 2) others73.push_back(at("Table 7.3", link_pct(l)));
  }
  ch7.rows.push_back(above("Table 7.3", link_pct(2), "busiest", others73, 1.0));
  for (int l = 0; l < 8; ++l) {
    if (is_backup(l)) continue;
    ch7.rows.push_back(above("Table 7.3", link_pct(l),
                             num(kTable73[l]) + " > " + num(kTable61[l]) + " (Table 6.1)",
                             {at("Table 6.1", link_pct(l))}));
  }
  ch7.rows.push_back(relative("Fig 7-6", "single-master SR longest run (min)", 16, 0.15, 2));
  ch7.rows.push_back(range("Fig 7-6", "multiple-master SR longest run (min)", "~4-8", 4, 8, 2));
  ch7.rows.push_back(relative("Fig 7-6", "single-master IB longest run (min)", 55, 0.15, 2));
  ch7.rows.push_back(relative("Fig 7-6", "multiple-master IB longest run (min)", 30, 0.15, 2));
  ch7.rows.push_back(relative("Fig 7-6", "multiple-master R_SR^max (min)", 19, 0.15, 2));
  ch7.rows.push_back(relative("Fig 7-6", "multiple-master R_IB^max (min)", 37, 0.15, 2));
  ch7.rows.push_back(above("Fig 7-6", "single-master R_SR^max (min)", "31 > 19",
                           {at("Fig 7-6", "multiple-master R_SR^max (min)")}, 0.0, 2));
  ch7.rows.push_back(above("Fig 7-6", "single-master R_IB^max (min)", "63 > 37",
                           {at("Fig 7-6", "multiple-master R_IB^max (min)")}, 0.0, 2));

  Section abl{"Ablations and the analytic baseline", {}};
  // What EXPERIMENTS.md and DESIGN.md claim the ablations show.
  abl.rows.push_back(range("Sub-tick", "LOGIN mean, largest shift from 0.25x (%)", "< 1", 0, 1));
  abl.rows.push_back(range("Sub-tick", "app util spread over thresholds (pp)", "invariant", 0, 1));
  abl.rows.push_back(above("dT_SR", "R_SR^max at 15 min (min)", "shorter dT_SR cuts it",
                           {at("dT_SR", "R_SR^max at 5 min (min)")}));
  abl.rows.push_back(above("dT_SR", "NA->AS1 util at 5 min (%)", "shorter dT_SR loads the WAN",
                           {at("dT_SR", "NA->AS1 util at 15 min (%)")}));
  abl.rows.push_back(above("Caching", "OPEN mean at 0% hits (s)", "hits shed disk time",
                           {at("Caching", "OPEN mean at 90% hits (s)")}, 0.0, 2));
  abl.rows.push_back(above("Caching", "SAVE mean at 0% hits (s)", "hits shed disk time",
                           {at("Caching", "SAVE mean at 90% hits (s)")}, 0.0, 2));
  abl.rows.push_back(above("INDEXBUILD", "R_IB^max on 1 core (min)", "parallel build cuts it",
                           {at("INDEXBUILD", "R_IB^max on 4 cores (min)")}));
  abl.rows.push_back(above("INDEXBUILD", "runs on 4 cores", "more runs per day",
                           {at("INDEXBUILD", "runs on 1 core")}, 0.0, 0));
  abl.rows.push_back(range("INDEXBUILD", "idx util spread, 1-8 cores (pp)", "flat", 0, 1));
  abl.rows.push_back(range("Fig 2-11", "M/M/c util, largest error vs Erlang C (%)", "within ~4",
                           0, 4));
  abl.rows.push_back(range("Fig 2-11", "M/M/c E[N], largest error vs Erlang C (%)", "within ~4",
                           0, 4));

  std::vector<Section> table{ch5, ch6, ch7, abl};
  std::size_t marked = 0;
  for (Section& s : table) {
    for (Check& c : s.rows) {
      c.known_deviation = kKnownDeviations.count(row_id(c)) > 0;
      if (c.known_deviation) ++marked;
    }
  }
  if (marked != kKnownDeviations.size()) {
    throw std::logic_error("a known deviation names no row of the check table");
  }
  return table;
}

// ---------------------------------------------------------------------------
// Listing helpers.

void heading(std::ostream& out, const std::string& reproduces, const std::string& title) {
  out << "\n### " << reproduces << " — " << title << "\n";
}

void print_table(std::ostream& out, const TableReport& t) {
  out << "\n";
  t.print(out);
}

/// The series a 60 s collection would have recorded, from the 30 s one: a
/// window probe (cpu/, net/) reads the mean of its two 30 s windows, a gauge
/// (client counts) its value at every second sample.
TimeSeries every_60s(const TimeSeries& s) {
  if (s.label().rfind("cpu/", 0) == 0 || s.label().rfind("net/", 0) == 0) return s.snapshot(2);
  TimeSeries out(s.label());
  for (std::size_t i = 1; i < s.size(); i += 2) {
    out.append(s.samples()[i].t_seconds, s.samples()[i].value);
  }
  return out;
}

const TimeSeries& series(GdiSimulator& sim, const std::string& label) {
  const TimeSeries* s = sim.collector().find(label);
  if (s == nullptr) throw std::out_of_range("no collector series '" + label + "'");
  return *s;
}

// ---------------------------------------------------------------------------
// Chapter 5: validation.

double canonical_duration_s(const std::string& op, double size_mb) {
  ValidationOptions opt;
  opt.stop_launch_s = 0.0;
  Scenario scenario = make_validation_scenario(opt);
  SimulationLoop loop({scenario.tick_seconds, 0});
  scenario.register_with(loop);

  LaunchParams params;
  params.origin_dc = scenario.master_dc;
  params.size_mb = size_mb;
  params.instance_serial = 1;
  params.launcher_id = 9999;
  params.rng_seed = 4242;

  bool done = false;
  Tick end = 0;
  OperationInstance instance(scenario.catalog->get(op), *scenario.ctx, params,
                             [&](OperationInstance&, Tick t) {
                               done = true;
                               end = t;
                             });
  instance.start(loop.now());
  while (!done && loop.now() < 100000) loop.step();
  return done ? end * scenario.tick_seconds : -1.0;
}

/// Table 5.1: one isolated operation per (op, series) on the validation DC.
/// The summary lists every duration.
void table_5_1(Measurements& m) {
  const double sizes[3] = {SeriesSizes::kLightMb, SeriesSizes::kAverageMb,
                           SeriesSizes::kHeavyMb};
  double total[3] = {0, 0, 0};
  for (int op = 0; op < 8; ++op) {
    for (int s = 0; s < 3; ++s) {
      const double d = canonical_duration_s(kCadOps[op], sizes[s]);
      total[s] += d;
      m[at("Table 5.1", op_series(op, s))] = d;
    }
  }
  for (int s = 0; s < 3; ++s) {
    m[at("Table 5.1", std::string("TOTAL ") + kSeries[s] + " (s)")] = total[s];
  }
}

/// Fig 5-6: concurrent series in flight, sampled every 6 s, launches stopping
/// at 35 minutes and the run ending 3 minutes later.
TimeSeries concurrent_clients(int experiment) {
  ValidationOptions opt;
  opt.experiment = experiment;
  opt.stop_launch_s = 35.0 * 60.0;
  Scenario scenario = make_validation_scenario(opt);
  SimulationLoop loop({scenario.tick_seconds, 0});
  scenario.register_with(loop);

  TimeSeries clients("simulated");
  const Tick sample_every = static_cast<Tick>(6.0 / scenario.tick_seconds);
  const Tick end = static_cast<Tick>((opt.stop_launch_s + 3.0 * 60.0) / scenario.tick_seconds);
  while (loop.now() < end) {
    loop.step();
    if (loop.now() % sample_every == 0) {
      std::size_t concurrent = 0;
      for (auto& l : scenario.launchers) concurrent += l->concurrent();
      clients.append(loop.now_seconds(), static_cast<double>(concurrent));
    }
  }
  return clients;
}

void fig_5_6(std::ostream& out, Measurements& m) {
  heading(out, "Fig 5-6", "concurrent clients, experiments 1-3");
  const char* freqs[] = {"15-36-60s", "12-29-48s", "10-24-40s"};
  for (int exp = 1; exp <= 3; ++exp) {
    out << "\nExperiment-" << exp << " (" << freqs[exp - 1] << "):\n\n```\n";
    const TimeSeries sim = concurrent_clients(exp);
    print_series(out, sim, 16);
    const double steady =
        sim.mean_between(4.0 * 60.0, sim.samples().back().t_seconds - 3.0 * 60.0);
    m[at("Fig 5-6", "Exp-" + std::to_string(exp) + " steady-state clients")] = steady;
    out << "```\n\nsteady-state mean: " << TableReport::fmt(steady, 1) << " clients\n";
  }
}

/// One validation run over the thesis' 38-minute window, sampled every 6 s,
/// launches stopping 4 minutes before the end. Figs 5-7..5-10 / Table 5.2
/// and Table 5.3 both read it.
struct ValidationRun {
  std::vector<TimeSeries> cpu;  // kTierLabels order
  TimeSeries clients{"clients"};
  double mean_response_s = 0.0;
};

ValidationRun run_validation(int experiment, std::uint64_t seed) {
  ValidationOptions opt;
  opt.experiment = experiment;
  opt.seed = seed;
  opt.stop_launch_s = kValidationHorizon - 4.0 * 60.0;
  GdiSimulator sim(make_validation_scenario(opt), SimulatorConfig{6.0});
  sim.run_until_seconds(kValidationHorizon);

  ValidationRun out;
  for (const char* label : kTierLabels) out.cpu.push_back(series(sim, label));
  // Concurrent clients: the sum of the three series launchers.
  const TimeSeries& light = series(sim, "series/series/light");
  const TimeSeries& avg = series(sim, "series/series/average");
  const TimeSeries& heavy = series(sim, "series/series/heavy");
  for (std::size_t i = 0; i < light.size(); ++i) {
    out.clients.append(light.samples()[i].t_seconds, light.samples()[i].value +
                                                          avg.samples()[i].value +
                                                          heavy.samples()[i].value);
  }
  double total = 0.0;
  std::uint64_t count = 0;
  for (auto& l : sim.scenario().launchers) {
    for (const auto& [op, stats] : l->stats()) {
      total += stats.total_s;
      count += stats.count;
    }
  }
  out.mean_response_s = count ? total / count : 0.0;
  return out;
}

/// The reference ("physical") realization as a profiler records it: ~2%
/// multiplicative jitter on every sample, drawn tier after tier.
std::vector<TimeSeries> with_profiler_noise(const std::vector<TimeSeries>& cpu,
                                            std::uint64_t noise_seed) {
  Rng noise(noise_seed);
  std::vector<TimeSeries> out;
  for (const TimeSeries& s : cpu) {
    TimeSeries noisy(s.label());
    for (const Sample& sample : s.samples()) {
      noisy.append(sample.t_seconds, sample.value * (1.0 + noise.next_normal(0.0, 0.02)));
    }
    out.push_back(std::move(noisy));
  }
  return out;
}

/// Experiments 1-3 of Ch. 5: the reference run (seed 1000 + experiment,
/// with profiler noise) against the simulated run (seed 42).
void validation(std::ostream& out, Measurements& m) {
  ValidationRun reference[3], simulated[3];
  for (int e = 0; e < 3; ++e) {
    reference[e] = run_validation(e + 1, 1000 + e + 1);
    simulated[e] = run_validation(e + 1, 42);
  }

  heading(out, "Figs 5-7..5-10 / Table 5.2", "CPU utilization by tier, steady-state mu, sigma");
  const double t0 = 4.0 * 60.0, t1 = kValidationHorizon - 4.0 * 60.0;
  for (int e = 0; e < 3; ++e) {
    out << "\nExperiment-" << e + 1 << ":\n";
    const std::uint64_t seed = 1000 + e + 1;
    const std::vector<TimeSeries> phys = with_profiler_noise(reference[e].cpu, seed * 31 + 7);
    TableReport t({"Tier", "mu phys (sim)", "mu sim (sim)", "sigma phys", "sigma sim",
                   "mu paper-phys"});
    for (int i = 0; i < 4; ++i) {
      const TimeSeries& simu = simulated[e].cpu[i];
      m[at("Table 5.2", tier_mean(e + 1, i))] = 100.0 * simu.mean_between(t0, t1);
      t.add_row({kTiers[i], TableReport::pct(phys[i].mean_between(t0, t1)),
                 TableReport::pct(simu.mean_between(t0, t1)),
                 TableReport::pct(phys[i].stddev_between(t0, t1)),
                 TableReport::pct(simu.stddev_between(t0, t1)),
                 TableReport::fmt(kTable52[e][i], 2) + "%"});
    }
    print_table(out, t);
  }

  // Table 5.3, with its own draw of profiler noise; the summary lists it.
  for (int e = 0; e < 3; ++e) {
    const std::string exp = "Exp-" + std::to_string(e + 1);
    const std::uint64_t seed = 1000 + e + 1;
    const std::vector<TimeSeries> phys = with_profiler_noise(reference[e].cpu, seed * 17 + 3);
    for (int i = 0; i < 4; ++i) {
      m[at("Table 5.3", exp + " CPU " + kTiers[i] + " RMSE (%)")] =
          100.0 * rmse(phys[i], simulated[e].cpu[i]);
    }
    // Concurrent-client RMSE normalized by the mean level, as a fraction.
    const TimeSeries& clients = reference[e].clients;
    const double client_rmse = rmse(clients, simulated[e].clients);
    const double client_mean = clients.mean_between(0, clients.samples().back().t_seconds + 1);
    const double client_err = client_mean > 0 ? client_rmse / client_mean : 0.0;
    const double phys_r = reference[e].mean_response_s;
    const double resp_err =
        std::abs(phys_r - simulated[e].mean_response_s) / std::max(1e-9, phys_r);
    m[at("Table 5.3", exp + " clients RMSE (%)")] = 100.0 * client_err;
    m[at("Table 5.3", exp + " response RMSE (%)")] = 100.0 * resp_err;
  }
}

/// §5.3.3: the workload-driven memory model against the flat pool the
/// physical servers show, Experiment-2 over 20 minutes.
void sec_5_3_3(std::ostream& out, Measurements& m) {
  heading(out, "Sec. 5.3.3", "memory: workload-driven model vs the flat pool");
  ValidationOptions opt;
  opt.experiment = 2;
  opt.stop_launch_s = 20.0 * 60.0;
  GdiSimulator sim(make_validation_scenario(opt));
  sim.run_until_seconds(opt.stop_launch_s);

  struct TierInfo {
    const char* label;
    TierKind kind;
    double paper_observed_gb;
  };
  const TierInfo tiers[] = {{"T_app", TierKind::App, 32.0},
                            {"T_db", TierKind::Db, 28.0},
                            {"T_fs", TierKind::Fs, 12.0},
                            {"T_idx", TierKind::Idx, 12.0}};
  TableReport t({"Tier", "model peak (GB)", "observed/pool (GB)", "paper observed (GB)"});
  DataCenter& na = sim.scenario().dc("NA");
  double worst_ratio = 0.0;
  for (const TierInfo& ti : tiers) {
    Tier* tier = na.tier(ti.kind);
    const double model_peak_gb =
        series(sim, std::string("mem/NA/") + tier_kind_name(ti.kind)).max_value() / (1ull << 30);
    double observed_gb = 0.0;
    for (std::size_t i = 0; i < tier->server_count(); ++i) {
      observed_gb += tier->server(i).memory().observed_bytes() / (1ull << 30);
    }
    worst_ratio = std::max(worst_ratio, model_peak_gb / observed_gb);
    t.add_row({ti.label, TableReport::fmt(model_peak_gb, 3), TableReport::fmt(observed_gb, 1),
               TableReport::fmt(ti.paper_observed_gb, 1)});
  }
  m[at("Sec. 5.3.3", "largest model peak / pool (%)")] = 100.0 * worst_ratio;
  print_table(out, t);
}

// ---------------------------------------------------------------------------
// Chapter 6: the consolidated day at scale 0.1.

void figs_6_5_to_6_7(std::ostream& out, Measurements& m, Scenario& scenario) {
  heading(out, "Figs 6-5..6-7", "CAD, VIS and PDM clients by hour and data center");
  for (const auto& [name, expected_global_peak] : kAppPeaks) {
    const std::string app = name;
    out << "\n" << app << " workload (logged-in clients by hour, scale=" << kTableScale
        << "):\n";
    std::vector<std::string> headers{"Hour"};
    std::vector<ClientPopulation*> pops;
    for (auto& p : scenario.populations) {
      if (p->config().name.rfind(app + "@", 0) == 0) {
        pops.push_back(p.get());
        headers.push_back(p->config().name.substr(app.size() + 1));
      }
    }
    headers.push_back("Global");
    TableReport t(headers);
    // The curves interpolate linearly between hourly knots, so the largest
    // knot sum is the exact global peak; the listing shows every second hour.
    double global_peak = 0.0;
    for (int h = 0; h < 24; ++h) {
      std::vector<std::string> row{std::to_string(h) + ":00"};
      double total = 0.0;
      for (ClientPopulation* p : pops) {
        const double v = p->config().curve.at_hour(h);
        total += v;
        row.push_back(TableReport::fmt(v, 0));
      }
      global_peak = std::max(global_peak, total);
      row.push_back(TableReport::fmt(total, 0));
      if (h % 2 == 0) t.add_row(row);
    }
    print_table(out, t);
    m[at("Figs 6-5..6-7", app + " global peak (clients)")] = global_peak;
    out << "\nglobal peak: " << TableReport::fmt(global_peak, 0) << " (paper at scale 1.0: ~"
        << TableReport::fmt(expected_global_peak, 0) << ", scaled: ~"
        << TableReport::fmt(expected_global_peak * kTableScale, 0) << ")\n";
  }
}

void figs_6_10_6_11(std::ostream& out, Measurements& m, const DataGrowthModel& growth) {
  heading(out, "Figs 6-10/6-11", "data growth (MB/h) and SYNCHREP volumes per 15-min run");
  out << "\nData growth (MB/h) by data center (Figure 6-10):\n";
  {
    std::vector<std::string> headers{"Hour"};
    for (int d = 0; d < 7; ++d) headers.push_back(kGlobalDcNames[d]);
    headers.push_back("Global");
    TableReport t(headers);
    for (int h = 0; h < 24; h += 2) {
      std::vector<std::string> row{std::to_string(h) + ":00"};
      double total = 0.0;
      for (DcId d = 0; d < 7; ++d) {
        const double v = growth.rate_mb_per_hour(d, h);
        total += v;
        row.push_back(TableReport::fmt(v, 0));
      }
      row.push_back(TableReport::fmt(total, 0));
      t.add_row(row);
    }
    print_table(out, t);
  }

  out << "\nPull/Push volumes per 15-min SYNCHREP run to/from D_NA (Figure 6-11):\n";
  std::vector<std::string> headers{"Hour"};
  for (int d = 1; d < 7; ++d) headers.push_back(std::string(kGlobalDcNames[d]) + " pull");
  for (int d = 1; d < 7; ++d) headers.push_back(std::string(kGlobalDcNames[d]) + " push");
  headers.push_back("Total");
  TableReport t(headers);
  double peak_total = 0.0;
  for (int h = 0; h < 24; h += 2) {
    std::vector<std::string> row{std::to_string(h) + ":00"};
    double new_mb[7];
    double total_new = 0.0;
    for (DcId d = 0; d < 7; ++d) {
      new_mb[d] = growth.generated_mb(d, h, h + 0.25);
      total_new += new_mb[d];
    }
    double run_total = 0.0;
    for (DcId d = 1; d < 7; ++d) {
      row.push_back(TableReport::fmt(new_mb[d], 0));
      run_total += new_mb[d];
    }
    for (DcId d = 1; d < 7; ++d) {
      const double push = total_new - new_mb[d];
      row.push_back(TableReport::fmt(push, 0));
      run_total += push;
    }
    peak_total = std::max(peak_total, run_total);
    row.push_back(TableReport::fmt(run_total, 0));
    t.add_row(row);
  }
  print_table(out, t);
  m[at("Figs 6-10/6-11", "peak pull+push per run (MB)")] = peak_total;
  out << "\npeak pull+push per run: " << TableReport::fmt(peak_total, 0)
      << " MB (thesis at full scale: ~" << TableReport::fmt(kSyncPeakMb, 0)
      << " MB; scaled target ~" << TableReport::fmt(kSyncPeakMb * kTableScale, 0) << ")\n";
}

/// Tables 6.1 and 7.3: mean link utilization over 12:00-16:00 GMT, from the
/// 30 s samples. The summary lists both tables.
void wan_means(GdiSimulator& sim, Measurements& m, const char* ref) {
  for (int l = 0; l < 8; ++l) {
    m[at(ref, link_pct(l))] = 100.0 * series(sim, std::string("net/") + kLinks[l])
                                          .mean_between(12.0 * kHour, 16.0 * kHour);
  }
}

void fig_6_12(std::ostream& out, Measurements& m, GdiSimulator& sim) {
  heading(out, "Figs 6-12/6-13", "CPU utilization through the day, D_NA tiers and D_AUS T_fs");
  auto print_hourly = [&](const std::vector<const char*>& labels) {
    std::vector<TimeSeries> views;
    std::vector<std::string> headers{"Hour"};
    for (const char* l : labels) {
      views.push_back(every_60s(series(sim, l)));
      headers.push_back(l);
    }
    TableReport t(headers);
    for (int h = 0; h < 24; ++h) {
      std::vector<std::string> row{TableReport::fmt(h, 0) + ":00"};
      for (const TimeSeries& v : views) {
        const double mean = v.mean_between(h * kHour, (h + 1) * kHour);
        const bool is_count = v.label().rfind("clients/", 0) == 0;
        row.push_back(is_count ? TableReport::fmt(mean, 0) : TableReport::pct(mean));
      }
      t.add_row(row);
    }
    print_table(out, t);
  };
  out << "\nD_NA tiers + world client counts (Figure 6-12):\n";
  print_hourly({"cpu/NA/app", "cpu/NA/db", "cpu/NA/idx", "cpu/NA/fs", "clients/logged_in",
                "clients/active"});
  out << "\nD_AUS file tier (Figure 6-13):\n";
  print_hourly({"cpu/AUS/fs"});

  double peak[4];
  for (int t = 0; t < 4; ++t) {
    peak[t] = every_60s(series(sim, kTierLabels[t])).max_value();
    m[at("Fig 6-12", std::string("D_NA ") + kTiers[t] + " peak (%)")] = 100.0 * peak[t];
  }
  out << "\nPeak D_NA app-tier utilization: " << TableReport::pct(peak[0])
      << " (thesis: ~73% at 15:00 GMT)\n";
}

void print_ledger(std::ostream& out, const FreshnessLedger& ledger, const char* duration,
                  const char* volume) {
  TableReport t({"Hour", duration, volume});
  for (const auto& run : ledger.runs()) {
    t.add_row({TableReport::fmt(run.launch_hour, 2), TableReport::fmt(run.duration_s / 60.0),
               TableReport::fmt(run.total_mb, 0)});
  }
  print_table(out, t);
}

void fig_6_14(std::ostream& out, Measurements& m, GdiSimulator& sim) {
  heading(out, "Fig 6-14", "SYNCHREP and INDEXBUILD runs by launch hour");
  SynchRepDaemon* sr = sim.scenario().synchreps.at(0).get();
  IndexBuildDaemon* ib = sim.scenario().indexbuilds.at(0).get();
  out << "\nSYNCHREP run durations by launch hour:\n";
  print_ledger(out, sr->ledger(), "SR duration (min)", "SR volume (MB)");
  out << "\nINDEXBUILD run durations by launch hour:\n";
  print_ledger(out, ib->ledger(), "IB duration (min)", "IB volume (MB)");
  m[at("Fig 6-14", "R_SR^max (min)")] = sr->max_staleness_s() / 60.0;
  m[at("Fig 6-14", "R_IB^max (min)")] = ib->max_unsearchable_s() / 60.0;
  out << "\nR_SR^max = " << TableReport::fmt(sr->max_staleness_s() / 60.0)
      << " min (thesis ~31 min)\n"
      << "R_IB^max = " << TableReport::fmt(ib->max_unsearchable_s() / 60.0)
      << " min (thesis ~63 min)\n";
}

void print_population(std::ostream& out, ClientPopulation* pop) {
  if (pop == nullptr) {
    out << "(population not present at this scale)\n";
    return;
  }
  TableReport t({"Operation", "count", "mean (s)", "min (s)", "max (s)"});
  for (const auto& [op, stats] : pop->stats()) {
    t.add_row({op, std::to_string(stats.count), TableReport::fmt(stats.mean()),
               TableReport::fmt(stats.min_s), TableReport::fmt(stats.max_s)});
  }
  print_table(out, t);
}

void fig_6_15(std::ostream& out, Measurements& m, GdiSimulator& sim) {
  heading(out, "Figs 6-15..6-20 / Table 6.2", "response times by application and data center");
  for (const char* dc : {"NA", "AUS"}) {
    for (const char* app : {"CAD", "VIS", "PDM"}) {
      out << "\n" << app << " response times in D_" << dc << ":\n";
      print_population(out, sim.scenario().population(std::string(app) + "@" + dc));
    }
  }

  out << "\nTable 6.2 — CAD latency penalty in D_AUS vs D_NA:\n";
  ClientPopulation* na = sim.scenario().population("CAD@NA");
  ClientPopulation* aus = sim.scenario().population("CAD@AUS");
  TableReport t({"Operation", "R_NA (s)", "R_AUS (s)", "dR (s)", "dR/R_NA", "paper dR/R_NA"});
  for (int op = 0; op < 8; ++op) {
    const double rna = na->stats().at(kCadOps[op]).mean();
    const double raus = aus->stats().at(kCadOps[op]).mean();
    m[at("Table 6.2", std::string(kCadOps[op]) + " AUS penalty (%)")] =
        100.0 * (raus - rna) / rna;
    t.add_row({kCadOps[op], TableReport::fmt(rna), TableReport::fmt(raus),
               TableReport::fmt(raus - rna), TableReport::pct((raus - rna) / rna),
               TableReport::fmt(kTable62[op], 1) + "%"});
  }
  print_table(out, t);
}

/// Fig 7-6's columns: D_NA's background processes at 18:00 GMT, after the
/// peak and its post-peak backlog.
struct BackgroundSummary {
  double sr_max_min = 0, sr_exposure_min = 0, ib_max_min = 0, ib_exposure_min = 0;
  double file_mean_stale_min = 0.0, file_p95_stale_min = 0.0;
  std::uint64_t files = 0;
};

BackgroundSummary background_summary(GdiSimulator& sim, const FileTracker& tracker) {
  SynchRepDaemon* sr = sim.scenario().synchrep_at(0);
  IndexBuildDaemon* ib = sim.scenario().indexbuild_at(0);
  BackgroundSummary out;
  out.sr_max_min = sr->ledger().max_duration_s() / 60.0;
  out.sr_exposure_min = sr->max_staleness_s() / 60.0;
  out.ib_max_min = ib->ledger().max_duration_s() / 60.0;
  out.ib_exposure_min = ib->max_unsearchable_s() / 60.0;
  const StalenessDistribution staleness = tracker.pooled();
  out.file_mean_stale_min = staleness.mean_s() / 60.0;
  out.file_p95_stale_min = staleness.percentile_s(0.95) / 60.0;
  out.files = staleness.count();
  return out;
}

/// The consolidated day, collected every 30 s: Table 6.1 at 16:00, Fig
/// 7-6's single-master column at 18:00, Figs 6-12..6-15 at 24:00. The file
/// tracker only records completed SYNCHREP runs, so it changes no result.
BackgroundSummary consolidated_day(std::ostream& out, Measurements& m) {
  GlobalOptions opt;
  opt.scale = kTableScale;
  Scenario scenario = make_consolidated_scenario(opt);
  figs_6_5_to_6_7(out, m, scenario);
  figs_6_10_6_11(out, m, scenario.growth);

  FileTracker tracker(scenario.growth, scenario.apm, {0, 1, 2, 3, 4, 5, 6}, scenario.master_dc,
                      99);
  for (auto& sr : scenario.synchreps) sr->set_file_tracker(&tracker);
  GdiSimulator sim(std::move(scenario), SimulatorConfig{30.0});

  sim.run_until_seconds(16.0 * kHour);
  wan_means(sim, m, "Table 6.1");
  sim.run_until_seconds(18.0 * kHour);
  const BackgroundSummary single = background_summary(sim, tracker);
  sim.run_until_seconds(24.0 * kHour);
  fig_6_12(out, m, sim);
  fig_6_14(out, m, sim);
  fig_6_15(out, m, sim);
  return single;
}

// ---------------------------------------------------------------------------
// Chapter 7: the multiple-master day at scale 0.1.

void print_apm(std::ostream& out, const AccessPatternMatrix& apm, const char* title) {
  out << "\n" << title << " (row = accessing DC, column = owner, %):\n";
  std::vector<std::string> headers{"Access \\ Owner"};
  for (int d = 0; d < 7; ++d) headers.push_back(kGlobalDcNames[d]);
  headers.push_back("Total");
  TableReport t(headers);
  for (DcId origin = 0; origin < 7; ++origin) {
    std::vector<std::string> row{kGlobalDcNames[origin]};
    double total = 0.0;
    for (DcId owner = 0; owner < 7; ++owner) {
      const double pct = apm.fraction(origin, owner) * 100.0;
      total += pct;
      row.push_back(TableReport::fmt(pct, 2));
    }
    row.push_back(TableReport::fmt(total, 0));
    t.add_row(row);
  }
  print_table(out, t);
}

void tables_7_1_7_2(std::ostream& out) {
  heading(out, "Tables 7.1/7.2", "access pattern matrices");
  print_apm(out, AccessPatternMatrix::single_master(7, 0),
            "Table 7.1 — consolidated (all owned by D_NA)");
  const AccessPatternMatrix apm = multimaster_apm();
  print_apm(out, apm, "Table 7.2 — multiple master (measured APM)");

  // Sampling the matrix converges to its rows.
  out << "\nEmpirical owner sampling from D_EU (1M draws):\n";
  Rng rng(7);
  std::vector<std::uint64_t> counts(7, 0);
  const int n = 1000000;
  for (int i = 0; i < n; ++i) ++counts[apm.sample_owner(1, rng.next_double())];
  TableReport t({"Owner", "sampled %", "table %"});
  for (DcId owner = 0; owner < 7; ++owner) {
    t.add_row({kGlobalDcNames[owner], TableReport::fmt(100.0 * counts[owner] / n, 2),
               TableReport::fmt(apm.fraction(1, owner) * 100.0, 2)});
  }
  print_table(out, t);
}

double peak_run_volume(const AccessPatternMatrix& apm, const DataGrowthModel& growth,
                       DcId home, bool apply_apm, TableReport* table) {
  double peak = 0.0;
  for (int h = 0; h < 24; h += 2) {
    double new_mb[7];
    double total_new = 0.0;
    for (DcId d = 0; d < 7; ++d) {
      const double frac = apply_apm ? owned_growth_fraction(apm, d, home) : 1.0;
      new_mb[d] = growth.generated_mb(d, h, h + 0.25) * frac;
      total_new += new_mb[d];
    }
    double pull = 0.0, push = 0.0;
    for (DcId d = 0; d < 7; ++d) {
      if (d != home) pull += new_mb[d];
    }
    for (DcId d = 0; d < 7; ++d) {
      if (d != home) push += total_new - new_mb[d];
    }
    peak = std::max(peak, pull + push);
    if (table != nullptr) {
      table->add_row({std::to_string(h) + ":00", TableReport::fmt(pull, 0),
                      TableReport::fmt(push, 0), TableReport::fmt(pull + push, 0)});
    }
  }
  return peak;
}

void figs_7_4_7_5(std::ostream& out, Measurements& m, const Scenario& mm) {
  heading(out, "Figs 7-4/7-5", "multiple-master SYNCHREP volumes per run");
  out << "\nD_NA pull/push per 15-min run (Figure 7-4):\n";
  TableReport tna({"Hour", "Pull (MB)", "Push (MB)", "Total (MB)"});
  const double na_peak = peak_run_volume(mm.apm, mm.growth, 0, true, &tna);
  print_table(out, tna);
  out << "\nD_EU pull/push per 15-min run (Figure 7-5):\n";
  TableReport teu({"Hour", "Pull (MB)", "Push (MB)", "Total (MB)"});
  const double eu_peak = peak_run_volume(mm.apm, mm.growth, 1, true, &teu);
  print_table(out, teu);

  const double single_peak = peak_run_volume(mm.apm, mm.growth, 0, false, nullptr);
  m[at("Figs 7-4/7-5", "D_NA peak-volume reduction (%)")] = 100.0 * (1.0 - na_peak / single_peak);
  out << "\nPeak per-run volume, D_NA single-master: " << TableReport::fmt(single_peak, 0)
      << " MB\n"
      << "Peak per-run volume, D_NA multiple-master: " << TableReport::fmt(na_peak, 0)
      << " MB (reduction " << TableReport::pct(1.0 - na_peak / single_peak)
      << ", thesis ~43%)\n"
      << "Peak per-run volume, D_EU multiple-master: " << TableReport::fmt(eu_peak, 0)
      << " MB\n";
}

void sec_7_4_1(std::ostream& out, Measurements& m, GdiSimulator& sim) {
  heading(out, "Sec. 7.4.1", "multiple-master CPU utilization");
  struct Row {
    const char* label;
    const char* what;
    const char* paper;
  };
  const Row rows[] = {
      {"cpu/NA/app", "D_NA T_app peak (%)", "~78% (4 servers vs 8)"},
      {"cpu/NA/db", "D_NA T_db peak (%)", "~39% (half the cores)"},
      {"cpu/EU/app", "D_EU T_app peak (%)", "~57% (3 servers)"},
      {"cpu/EU/db", "D_EU T_db peak (%)", "~48%"},
      {"cpu/AS1/app", nullptr, "(small master)"},
      {"cpu/SA/app", nullptr, "(small master)"},
  };
  TableReport t({"Tier", "mean util 12-16 GMT", "peak", "paper"});
  for (const Row& r : rows) {
    const TimeSeries view = every_60s(series(sim, r.label));
    if (r.what != nullptr) m[at("Sec. 7.4.1", r.what)] = 100.0 * view.max_value();
    t.add_row({r.label, TableReport::pct(view.mean_between(12.0 * kHour, 16.0 * kHour)),
               TableReport::pct(view.max_value()), r.paper});
  }
  print_table(out, t);
}

void fig_7_6(std::ostream& out, Measurements& m, GdiSimulator& sim, const FileTracker& tracker,
             const BackgroundSummary& single) {
  heading(out, "Fig 7-6", "multiple-master background processes in D_NA, vs Fig 6-14");
  const BackgroundSummary mm = background_summary(sim, tracker);
  out << "\nD_NA SYNCHREP runs (multiple master), by launch hour:\n";
  print_ledger(out, sim.scenario().synchrep_at(0)->ledger(), "duration (min)", "volume (MB)");

  const std::pair<const char*, const BackgroundSummary*> columns[2] = {{"single-master", &single},
                                                                       {"multiple-master", &mm}};
  for (const auto& [name, s] : columns) {
    const std::string who = name;
    m[at("Fig 7-6", who + " SR longest run (min)")] = s->sr_max_min;
    m[at("Fig 7-6", who + " R_SR^max (min)")] = s->sr_exposure_min;
    m[at("Fig 7-6", who + " IB longest run (min)")] = s->ib_max_min;
    m[at("Fig 7-6", who + " R_IB^max (min)")] = s->ib_exposure_min;
  }
  TableReport t({"Metric", "single master", "multiple master", "paper single", "paper mm"});
  t.add_row({"SR longest run (min)", TableReport::fmt(single.sr_max_min),
             TableReport::fmt(mm.sr_max_min), "~16", "~4-8"});
  t.add_row({"R_SR^max (min)", TableReport::fmt(single.sr_exposure_min),
             TableReport::fmt(mm.sr_exposure_min), "31", "19"});
  t.add_row({"IB longest run (min)", TableReport::fmt(single.ib_max_min),
             TableReport::fmt(mm.ib_max_min), "~55", "~30"});
  t.add_row({"R_IB^max (min)", TableReport::fmt(single.ib_exposure_min),
             TableReport::fmt(mm.ib_exposure_min), "63", "37"});
  t.add_row({"per-file staleness mean (min)", TableReport::fmt(single.file_mean_stale_min),
             TableReport::fmt(mm.file_mean_stale_min), "-", "-"});
  t.add_row({"per-file staleness p95 (min)", TableReport::fmt(single.file_p95_stale_min),
             TableReport::fmt(mm.file_p95_stale_min), "-", "-"});
  t.add_row({"files tracked", std::to_string(single.files), std::to_string(mm.files), "-",
             "-"});
  print_table(out, t);
}

/// The multiple-master day, collected every 30 s: §7.4.1 and Table 7.3 at
/// 16:00, Fig 7-6 at 18:00.
void multimaster_day(std::ostream& out, Measurements& m, const BackgroundSummary& single) {
  tables_7_1_7_2(out);
  GlobalOptions opt;
  opt.scale = kTableScale;
  Scenario scenario = make_multimaster_scenario(opt);
  figs_7_4_7_5(out, m, scenario);

  FileTracker tracker(scenario.growth, scenario.apm, {0, 1, 2, 3, 4, 5, 6}, scenario.master_dc,
                      99);
  for (auto& sr : scenario.synchreps) sr->set_file_tracker(&tracker);
  GdiSimulator sim(std::move(scenario), SimulatorConfig{30.0});

  sim.run_until_seconds(16.0 * kHour);
  sec_7_4_1(out, m, sim);
  wan_means(sim, m, "Table 7.3");
  sim.run_until_seconds(18.0 * kHour);
  fig_7_6(out, m, sim, tracker, single);
}

// ---------------------------------------------------------------------------
// Ablations.

/// DESIGN.md §4's instant-stage threshold, Experiment-2 over 12 minutes. The
/// last column counts agent phases, the work the threshold saves.
void ablation_subtick(std::ostream& out, Measurements& m) {
  heading(out, "Sub-tick ablation (DESIGN.md §4)", "instant-stage threshold");
  struct Point {
    double threshold, login_s = 0, open_s = 0, app_util = 0;
    std::uint64_t agent_phases = 0;
  };
  std::vector<Point> points;
  for (double threshold : {0.0, 0.1, 0.25, 0.5, 1.0}) {
    ValidationOptions opt;
    opt.experiment = 2;
    opt.stop_launch_s = 12.0 * 60.0;
    Scenario scenario = make_validation_scenario(opt);
    scenario.ctx->set_instant_fraction(threshold);
    GdiSimulator sim(std::move(scenario));
    sim.run_until_seconds(opt.stop_launch_s);

    Point p{threshold};
    p.agent_phases = sim.loop().scheduler_stats().agent_phase_runs;
    p.app_util =
        series(sim, "cpu/NA/app").mean_between(opt.stop_launch_s / 2, opt.stop_launch_s);
    // The light series is representative.
    const auto& stats = sim.scenario().launchers.front()->stats();
    if (stats.count("CAD.LOGIN")) p.login_s = stats.at("CAD.LOGIN").mean();
    if (stats.count("CAD.OPEN")) p.open_s = stats.at("CAD.OPEN").mean();
    points.push_back(p);
  }
  TableReport t({"threshold (x tick)", "LOGIN mean (s)", "OPEN mean (s)", "app util",
                 "agent phases"});
  const double login_ref = points[2].login_s;  // the default, 0.25
  double login_shift = 0.0, util_lo = 1.0, util_hi = 0.0;
  for (const Point& p : points) {
    login_shift = std::max(login_shift, std::abs(p.login_s - login_ref) / login_ref);
    util_lo = std::min(util_lo, p.app_util);
    util_hi = std::max(util_hi, p.app_util);
    t.add_row({TableReport::fmt(p.threshold, 2), TableReport::fmt(p.login_s),
               TableReport::fmt(p.open_s), TableReport::pct(p.app_util),
               std::to_string(p.agent_phases)});
  }
  m[at("Sub-tick", "LOGIN mean, largest shift from 0.25x (%)")] = 100.0 * login_shift;
  m[at("Sub-tick", "app util spread over thresholds (pp)")] = 100.0 * (util_hi - util_lo);
  print_table(out, t);
}

/// The scale-0.05 consolidated day both background ablations sweep; at the
/// defaults (15 min, 1 core) they share one run.
GlobalOptions small_day(double synchrep_interval_s, unsigned index_cores) {
  GlobalOptions opt;
  opt.scale = 0.05;
  opt.synchrep_interval_s = synchrep_interval_s;
  opt.indexbuild_parallelism = index_cores;
  return opt;
}

struct IntervalPoint {
  double r_sr_max_min, longest_run_min, na_as1_util, na_app_util;
};

/// Read at 17:00, after the peak.
IntervalPoint interval_point(GdiSimulator& sim) {
  SynchRepDaemon* sr = sim.scenario().synchrep_at(0);
  const double t0 = 12.0 * kHour, t1 = 16.0 * kHour;
  return {sr->max_staleness_s() / 60.0, sr->ledger().max_duration_s() / 60.0,
          series(sim, "net/NA->AS1").mean_between(t0, t1),
          series(sim, "cpu/NA/app").mean_between(t0, t1)};
}

struct IndexPoint {
  double longest_min, r_ib_max_min, idx_util;
  std::size_t runs;
};

/// Read at 18:00, after the post-peak backlog.
IndexPoint index_point(GdiSimulator& sim) {
  IndexBuildDaemon* ib = sim.scenario().indexbuild_at(0);
  return {ib->ledger().max_duration_s() / 60.0, ib->max_unsearchable_s() / 60.0,
          series(sim, "cpu/NA/idx").mean_between(12.0 * kHour, 18.0 * kHour),
          ib->ledger().runs().size()};
}

void ablation_background(std::ostream& out, Measurements& m) {
  std::map<int, IntervalPoint> by_interval;  // minutes
  std::map<unsigned, IndexPoint> by_cores;
  {
    GdiSimulator sim(make_consolidated_scenario(small_day(15.0 * 60.0, 1)),
                     SimulatorConfig{60.0});
    sim.run_until_seconds(17.0 * kHour);
    by_interval[15] = interval_point(sim);
    sim.run_until_seconds(18.0 * kHour);
    by_cores[1] = index_point(sim);
  }
  for (int minutes : {5, 30, 60}) {
    GdiSimulator sim(make_consolidated_scenario(small_day(minutes * 60.0, 1)),
                     SimulatorConfig{60.0});
    sim.run_until_seconds(17.0 * kHour);
    by_interval[minutes] = interval_point(sim);
  }
  for (unsigned cores : {2u, 4u, 8u}) {
    GdiSimulator sim(make_consolidated_scenario(small_day(15.0 * 60.0, cores)),
                     SimulatorConfig{60.0});
    sim.run_until_seconds(18.0 * kHour);
    by_cores[cores] = index_point(sim);
  }

  heading(out, "dT_SR ablation (thesis §6.3.3)", "SYNCHREP interval, staleness, saturation");
  TableReport t({"dT_SR (min)", "R_SR^max (min)", "longest run (min)", "NA->AS1 util",
                 "NA app util"});
  for (const auto& [minutes, p] : by_interval) {
    const std::string dt = " at " + std::to_string(minutes) + " min";
    m[at("dT_SR", "R_SR^max" + dt + " (min)")] = p.r_sr_max_min;
    m[at("dT_SR", "NA->AS1 util" + dt + " (%)")] = 100.0 * p.na_as1_util;
    t.add_row({std::to_string(minutes), TableReport::fmt(p.r_sr_max_min, 1),
               TableReport::fmt(p.longest_run_min, 1), TableReport::pct(p.na_as1_util),
               TableReport::pct(p.na_app_util)});
  }
  print_table(out, t);

  heading(out, "INDEXBUILD ablation (thesis §9.1.1)", "parallelizable index build");
  TableReport ti({"index cores", "longest run (min)", "R_IB^max (min)", "runs", "idx util"});
  for (const auto& [cores, p] : by_cores) {
    const std::string on = " on " + std::to_string(cores) + (cores == 1 ? " core" : " cores");
    m[at("INDEXBUILD", "R_IB^max" + on + " (min)")] = p.r_ib_max_min;
    m[at("INDEXBUILD", "runs" + on)] = static_cast<double>(p.runs);
    ti.add_row({std::to_string(cores), TableReport::fmt(p.longest_min, 1),
                TableReport::fmt(p.r_ib_max_min, 1), std::to_string(p.runs),
                TableReport::pct(p.idx_util)});
  }
  m[at("INDEXBUILD", "idx util spread, 1-8 cores (pp)")] =
      100.0 * std::abs(by_cores[8].idx_util - by_cores[1].idx_util);
  print_table(out, ti);
}

/// Thesis Fig 3-5's cache bypass, Experiment-3 (the heaviest disk pressure)
/// over 12 minutes.
void ablation_caching(std::ostream& out, Measurements& m) {
  heading(out, "Caching ablation (thesis Fig 3-5)", "memory cache-hit rate");
  TableReport t({"hit rate", "OPEN mean (s)", "SAVE mean (s)", "fs cpu util"});
  for (double hit : {0.0, 0.30, 0.60, 0.90}) {
    ValidationOptions opt;
    opt.experiment = 3;
    opt.mem_cache_hit = hit;
    opt.stop_launch_s = 12.0 * 60.0;
    GdiSimulator sim(make_validation_scenario(opt));
    sim.run_until_seconds(opt.stop_launch_s);

    double open_s = 0.0, save_s = 0.0;
    std::uint64_t n_open = 0, n_save = 0;
    for (auto& l : sim.scenario().launchers) {
      const auto& stats = l->stats();
      if (stats.count("CAD.OPEN")) {
        open_s += stats.at("CAD.OPEN").total_s;
        n_open += stats.at("CAD.OPEN").count;
      }
      if (stats.count("CAD.SAVE")) {
        save_s += stats.at("CAD.SAVE").total_s;
        n_save += stats.at("CAD.SAVE").count;
      }
    }
    if (n_open) open_s /= n_open;
    if (n_save) save_s /= n_save;
    const std::string rate = " at " + TableReport::fmt(hit * 100.0, 0) + "% hits (s)";
    m[at("Caching", "OPEN mean" + rate)] = open_s;
    m[at("Caching", "SAVE mean" + rate)] = save_s;
    const double fs_util =
        series(sim, "cpu/NA/fs").mean_between(opt.stop_launch_s / 2, opt.stop_launch_s);
    t.add_row({TableReport::pct(hit, 0), TableReport::fmt(open_s), TableReport::fmt(save_s),
               TableReport::pct(fs_util)});
  }
  print_table(out, t);
}

struct StationResult {
  double sim_util = 0.0;
  double sim_jobs = 0.0;
};

/// An isolated M/M/c station under Poisson arrivals, advanced in 2 ms steps.
StationResult simulate_station(const KendallSpec& spec, double lambda, double mu,
                               double horizon) {
  auto q = make_fcfs_queue(spec, 1.0);
  Rng rng(42);
  double next_arrival = rng.next_exponential(1.0 / lambda);
  double t = 0.0;
  const double dt = 0.002;
  double busy = 0.0, jobs_area = 0.0;
  while (t < horizon) {
    while (next_arrival <= t) {
      q->enqueue(rng.next_exponential(1.0 / mu), nullptr);
      next_arrival += rng.next_exponential(1.0 / lambda);
    }
    q->advance(dt);
    busy += q->last_utilization() * dt;
    jobs_area += static_cast<double>(q->total_jobs()) * dt;
    t += dt;
  }
  return {busy / horizon, jobs_area / horizon};
}

/// Thesis Ch. 2 / Fig 2-11: isolated stations against Erlang C, then the
/// validation DC (Experiment-2, 14 minutes) that no closed form covers.
void analytic_vs_simulation(std::ostream& out, Measurements& m) {
  heading(out, "Thesis Ch. 2 / Fig 2-11", "analytic queueing models vs simulation");
  out << "\nIsolated stations (M/M/c, Poisson arrivals, exp demands):\n";
  TableReport t({"Station", "rho", "util (sim)", "util (analytic)", "E[N] (sim)",
                 "E[N] (analytic)"});
  struct Case {
    const char* notation;
    double lambda;
  };
  double util_err = 0.0, jobs_err = 0.0;
  for (const Case c : {Case{"M/M/1", 0.6}, Case{"M/M/2", 1.4}, Case{"M/M/4", 3.0},
                       Case{"M/M/8", 6.0}}) {
    const KendallSpec spec = parse_kendall(c.notation);
    const double mu = 1.0;
    const StationResult r = simulate_station(spec, c.lambda, mu, 20000.0);
    const double util = analytic::mmc_utilization(spec.servers, c.lambda, mu);
    const double jobs = analytic::mmc_mean_in_system(spec.servers, c.lambda, mu);
    util_err = std::max(util_err, std::abs(r.sim_util - util) / util);
    jobs_err = std::max(jobs_err, std::abs(r.sim_jobs - jobs) / jobs);
    t.add_row({c.notation, TableReport::fmt(c.lambda / (spec.servers * mu), 2),
               TableReport::pct(r.sim_util), TableReport::pct(util),
               TableReport::fmt(r.sim_jobs, 3), TableReport::fmt(jobs, 3)});
  }
  m[at("Fig 2-11", "M/M/c util, largest error vs Erlang C (%)")] = 100.0 * util_err;
  m[at("Fig 2-11", "M/M/c E[N], largest error vs Erlang C (%)")] = 100.0 * jobs_err;
  print_table(out, t);

  out << "\nFull infrastructure (validation scenario, Experiment-2):\n";
  ValidationOptions opt;
  opt.experiment = 2;
  opt.stop_launch_s = 14.0 * 60.0;
  Scenario scenario = make_validation_scenario(opt);
  Tier& app = *scenario.dc("NA").tier(TierKind::App);
  const unsigned app_cores =
      app.server(0).spec().cpu.total_cores() * static_cast<unsigned>(app.server_count());
  GdiSimulator sim(std::move(scenario), SimulatorConfig{6.0});
  sim.run_until_seconds(opt.stop_launch_s);
  const double sim_util =
      series(sim, "cpu/NA/app").mean_between(opt.stop_launch_s / 2, opt.stop_launch_s);
  out << "\n  simulated T_app utilization: " << TableReport::pct(sim_util) << " on " << app_cores
      << " cores\n"
      << "  An equivalent closed-form model would need the full "
         "cascade/caching/latency structure — exactly the tractability "
         "wall the thesis describes; the simulator gets it from the same "
         "building blocks the analytic column above was validated on.\n";
}

// ---------------------------------------------------------------------------

/// Prints the checked summary; returns the number of failing rows.
int print_summary(std::ostream& out, const std::vector<Section>& table, const Measurements& m) {
  int ok = 0, known = 0, failing = 0;
  out << "<!-- repro:begin -->\n";
  for (const Section& s : table) {
    out << "\n### " << s.title << "\n\n";
    TableReport t({"Ref", "Quantity", "Paper", "Measured", "Band", "Status"});
    for (const Check& c : s.rows) {
      const repro::Outcome o = repro::evaluate(c, m);
      const std::string measured = TableReport::fmt(o.measured, c.digits);
      t.add_row({c.ref, c.what, c.paper, measured, o.band, repro::status_text(o.status)});
      if (repro::fails(o.status)) {
        ++failing;
        std::cerr << "gdisim_repro: " << row_id(c) << ": measured " << measured << ", band "
                  << o.band << ": " << repro::status_text(o.status) << "\n";
      } else if (o.status == repro::Status::kKnownDeviation) {
        ++known;
      } else {
        ++ok;
      }
    }
    t.print(out);
  }
  out << "\n" << ok << " rows in band, " << known << " known deviations, " << failing
      << " failing.\n<!-- repro:end -->\n";
  return failing;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1) {
    std::cerr << "gdisim_repro: takes no arguments, got '" << argv[1] << "'\n"
              << "usage: gdisim_repro > repro.md\n";
    return 2;
  }
  try {
    const std::vector<Section> table = check_table();
    Measurements m;
    std::ostringstream listings;
    table_5_1(m);
    fig_5_6(listings, m);
    validation(listings, m);
    sec_5_3_3(listings, m);
    const BackgroundSummary single = consolidated_day(listings, m);
    multimaster_day(listings, m, single);
    ablation_subtick(listings, m);
    ablation_background(listings, m);
    ablation_caching(listings, m);
    analytic_vs_simulation(listings, m);

    std::cout << "# GDISim thesis reproduction\n\n"
                 "Each row reads one measured quantity and checks it against the thesis\n"
                 "value's band, or against the quantities it must exceed. A known\n"
                 "deviation is a row the simulator misses today; it is printed, not\n"
                 "widened.\n\n";
    const int failing = print_summary(std::cout, table, m);
    std::cout << "\n## Listings\n" << listings.str();
    return failing == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "gdisim_repro: " << e.what() << "\n";
    return 1;
  }
}
