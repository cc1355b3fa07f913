// Checkpoint/restore equivalence (DESIGN.md §8): a run interrupted by a
// checkpoint→restore cycle must produce the *bit-identical* result
// fingerprint of the uninterrupted run — under both scheduler modes, and
// even when the snapshot is restored under a different scheduler than the
// one that saved it. Also covers warm-start forking (one snapshot, several
// perturbed scenarios) and structural-mismatch rejection.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "config/loader.h"
#include "config/scenarios.h"
#include "sim/fingerprint.h"
#include "sim/gdisim.h"

namespace gdisim {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string two_site_text() {
  return read_file(GDISIM_SOURCE_DIR "/configs/two_site.gdisim");
}

std::string three_continents_text() {
  return read_file(GDISIM_SOURCE_DIR "/configs/three_continents.gdisim");
}

/// Replaces the first occurrence of `from` with `to` (scenario perturbation).
std::string replaced(std::string text, const std::string& from, const std::string& to) {
  const auto pos = text.find(from);
  EXPECT_NE(pos, std::string::npos) << "perturbation target missing: " << from;
  text.replace(pos, from.size(), to);
  return text;
}

std::unique_ptr<GdiSimulator> make_sim(const std::string& text, SchedulerMode mode) {
  std::istringstream is(text);
  Scenario s = load_scenario(is, "<test>");
  SimulatorConfig cfg;
  cfg.scheduler = mode;
  return std::make_unique<GdiSimulator>(std::move(s), cfg);
}

std::uint64_t uninterrupted_fp(const std::string& text, SchedulerMode mode, double t2) {
  auto sim = make_sim(text, mode);
  sim->run_until_seconds(t2);
  return result_fingerprint(*sim);
}

/// Core check: run to t1, checkpoint to disk, restore into a fresh simulator,
/// continue to t2 — fingerprint must equal the uninterrupted run's.
void expect_restore_equivalence(const std::string& text, SchedulerMode mode, double t1, double t2,
                                const std::string& tag) {
  const std::uint64_t want = uninterrupted_fp(text, mode, t2);

  auto warm = make_sim(text, mode);
  warm->run_until_seconds(t1);
  const std::string snap = std::string(::testing::TempDir()) + "snap_" + tag + ".gdisnap";
  warm->checkpoint(snap);

  auto resumed = make_sim(text, mode);
  resumed->restore(snap);
  EXPECT_DOUBLE_EQ(resumed->now_seconds(), warm->now_seconds());
  resumed->run_until_seconds(t2);
  EXPECT_EQ(result_fingerprint(*resumed), want) << tag;
  std::remove(snap.c_str());
}

TEST(SnapshotEquivalence, TwoSiteSerialActiveSet) {
  expect_restore_equivalence(two_site_text(), SchedulerMode::kActiveSet, 60.0, 180.0,
                             "two_site_serial_active");
}

TEST(SnapshotEquivalence, TwoSiteSerialDenseSweep) {
  expect_restore_equivalence(two_site_text(), SchedulerMode::kDenseSweep, 60.0, 180.0,
                             "two_site_serial_dense");
}

TEST(SnapshotEquivalence, TwoSiteAcrossSynchrepLaunch) {
  // t1 sits after the first synchrep launch (interval 900 s), so daemon
  // in-flight cascades cross the checkpoint boundary.
  expect_restore_equivalence(two_site_text(), SchedulerMode::kActiveSet, 950.0, 1100.0,
                             "two_site_synchrep");
}

TEST(SnapshotEquivalence, ThreeContinents) {
  expect_restore_equivalence(three_continents_text(), SchedulerMode::kActiveSet, 60.0, 150.0,
                             "three_continents");
}

/// Every hardware station's utilization window, read at the current tick.
std::vector<double> station_windows(GdiSimulator& sim) {
  std::vector<double> out;
  for (Component* c : sim.scenario().topology->all_components()) {
    out.push_back(c->take_window_utilization(sim.loop().now()));
  }
  return out;
}

TEST(SnapshotEquivalence, PendingInstantWorkFoldsAfterRestore) {
  // The checkpoint lands while sub-tick work waits in the instant buckets of
  // parked stations. The restored run folds it in its first tick, the
  // uninterrupted run at a later touch; both add the same samples in the
  // same order, so every station's window, collected or not, matches bit
  // for bit at a later point off the collection grid.
  const std::string text = two_site_text();
  const double t1 = 61.37;
  const double t2 = 97.31;
  auto plain = make_sim(text, SchedulerMode::kActiveSet);
  plain->run_until_seconds(t2);
  ASSERT_NE(plain->loop().now() % plain->loop().config().collect_every, 0);
  const std::vector<double> want = station_windows(*plain);

  auto warm = make_sim(text, SchedulerMode::kActiveSet);
  warm->run_until_seconds(t1);
  std::size_t pending = 0;
  for (Component* c : warm->scenario().topology->all_components()) {
    if (c->instant_pending()) ++pending;
  }
  ASSERT_GT(pending, 0u) << "no instant work pending at the checkpoint";
  const std::vector<std::uint8_t> snap = warm->save_state();

  auto resumed = make_sim(text, SchedulerMode::kActiveSet);
  resumed->load_state(snap);
  resumed->run_until_seconds(t2);
  EXPECT_EQ(station_windows(*resumed), want);
}

/// Validation experiment `experiment` as gdisim_run runs it: 38 minutes,
/// launches stopping three minutes before the end, collection every 6 s.
std::unique_ptr<GdiSimulator> make_validation(int experiment) {
  ValidationOptions v;
  v.experiment = experiment;
  v.seed = 42;
  v.stop_launch_s = 35.0 * 60.0;
  return std::make_unique<GdiSimulator>(make_validation_scenario(v), SimulatorConfig{6.0});
}

/// Checkpoints a validation experiment at three instants with series in
/// flight; each restore re-saves the same bytes and finishes with the
/// uninterrupted run's fingerprint.
void expect_series_restore_equivalence(int experiment) {
  constexpr double kEnd = 38.0 * 60.0;
  auto plain = make_validation(experiment);
  std::vector<std::vector<std::uint8_t>> snaps;
  for (const double t : {301.37, 900.0, 1500.5}) {
    plain->run_until_seconds(t);
    std::size_t in_flight = 0;
    for (auto& l : plain->scenario().launchers) in_flight += l->concurrent();
    EXPECT_GT(in_flight, 0u) << "no series in flight at " << t << " s";
    snaps.push_back(plain->save_state());
  }
  plain->run_until_seconds(kEnd);
  const std::uint64_t want = result_fingerprint(*plain);

  for (const std::vector<std::uint8_t>& snap : snaps) {
    auto resumed = make_validation(experiment);
    resumed->load_state(snap);
    const double t = resumed->now_seconds();
    EXPECT_EQ(resumed->save_state(), snap) << "restored at " << t << " s";
    resumed->run_until_seconds(kEnd);
    EXPECT_EQ(result_fingerprint(*resumed), want) << "restored at " << t << " s";
  }
}

TEST(SnapshotEquivalence, ValidationExperiment1SeriesInFlight) {
  expect_series_restore_equivalence(1);
}

TEST(SnapshotEquivalence, ValidationExperiment2SeriesInFlight) {
  expect_series_restore_equivalence(2);
}

TEST(SnapshotEquivalence, ValidationExperiment3SeriesInFlight) {
  expect_series_restore_equivalence(3);
}

TEST(SnapshotEquivalence, RestoresAcrossScheduler) {
  // Save on a dense-sweep run; restore under the active-set scheduler. The
  // fingerprint must still match the uninterrupted run — the snapshot
  // carries simulation state only, never scheduler configuration.
  const std::string text = two_site_text();
  const std::uint64_t want = uninterrupted_fp(text, SchedulerMode::kActiveSet, 180.0);

  auto warm = make_sim(text, SchedulerMode::kDenseSweep);
  warm->run_until_seconds(60.0);
  const std::vector<std::uint8_t> snap = warm->save_state();

  auto resumed = make_sim(text, SchedulerMode::kActiveSet);
  resumed->load_state(snap);
  resumed->run_until_seconds(180.0);
  EXPECT_EQ(result_fingerprint(*resumed), want);
}

TEST(SnapshotEquivalence, CheckpointDoesNotPerturbTheRun) {
  // Taking a mid-run checkpoint and continuing in the *same* simulator must
  // leave the run byte-identical (saving is strictly read-only).
  const std::string text = two_site_text();
  const std::uint64_t want = uninterrupted_fp(text, SchedulerMode::kActiveSet, 180.0);

  auto sim = make_sim(text, SchedulerMode::kActiveSet);
  sim->run_until_seconds(60.0);
  (void)sim->save_state();
  sim->run_until_seconds(120.0);
  (void)sim->save_state();
  sim->run_until_seconds(180.0);
  EXPECT_EQ(result_fingerprint(*sim), want);
}

TEST(SnapshotEquivalence, RestoredResaveIsByteIdentical) {
  // save → load into a fresh sim → save again must reproduce the original
  // byte stream exactly (no state is lost or reordered by a round trip).
  const std::string text = two_site_text();
  auto a = make_sim(text, SchedulerMode::kActiveSet);
  a->run_until_seconds(90.0);
  const std::vector<std::uint8_t> first = a->save_state();

  auto b = make_sim(text, SchedulerMode::kActiveSet);
  b->load_state(first);
  const std::vector<std::uint8_t> second = b->save_state();
  EXPECT_EQ(first, second);
}

TEST(SnapshotEquivalence, WarmStartForking) {
  // One warm snapshot, three perturbed scenarios: think time and growth rate
  // are fork-safe knobs (non-structural). Every fork must restore, run to
  // the horizon, and produce a distinct result.
  const std::string base = two_site_text();
  auto warm = make_sim(base, SchedulerMode::kActiveSet);
  warm->run_until_seconds(120.0);
  const std::vector<std::uint8_t> snap = warm->save_state();

  const std::string forks[] = {
      base,
      replaced(base, "think 30", "think 12"),
      replaced(base, "think 30", "think 55"),
      replaced(base, "growth HQ 1500 8 17", "growth HQ 4000 8 17"),
  };
  std::vector<std::uint64_t> fps;
  for (const std::string& text : forks) {
    auto fork = make_sim(text, SchedulerMode::kActiveSet);
    fork->load_state(snap);
    EXPECT_DOUBLE_EQ(fork->now_seconds(), warm->now_seconds());
    fork->run_until_seconds(300.0);
    fps.push_back(result_fingerprint(*fork));
  }
  // The think-time forks must diverge from the unperturbed continuation.
  EXPECT_NE(fps[1], fps[0]);
  EXPECT_NE(fps[2], fps[0]);
  EXPECT_NE(fps[1], fps[2]);
}

TEST(SnapshotEquivalence, StructuralMismatchIsRejected) {
  const std::string base = two_site_text();
  auto warm = make_sim(base, SchedulerMode::kActiveSet);
  warm->run_until_seconds(30.0);
  const std::vector<std::uint8_t> snap = warm->save_state();

  // More servers in a tier: different agents — must be rejected.
  {
    auto fork =
        make_sim(replaced(base, "tier app 2 4 32", "tier app 3 4 32"), SchedulerMode::kActiveSet);
    EXPECT_THROW(fork->load_state(snap), std::runtime_error);
  }
  // Different peak population: different slot count — must be rejected.
  {
    auto fork = make_sim(replaced(base, "population CAD@BRANCH BRANCH CAD 20",
                                  "population CAD@BRANCH BRANCH CAD 24"),
                         SchedulerMode::kActiveSet);
    EXPECT_THROW(fork->load_state(snap), std::runtime_error);
  }
}

}  // namespace
}  // namespace gdisim
