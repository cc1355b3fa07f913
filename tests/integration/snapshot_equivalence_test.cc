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
