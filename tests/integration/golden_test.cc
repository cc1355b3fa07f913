// Golden regression pins: exact deterministic outcomes of fixed-seed runs.
// These values are *expected* to change when the operation catalog or engine
// semantics are intentionally recalibrated — update them deliberately in the
// same commit. Their job is to catch silent behavioural drift (an accidental
// change to routing, RNG streams, inbox ordering, or queue math shows up
// here first).
//
// The fingerprints are what `gdisim_run ... --threads 0 --quiet
// --fingerprint` prints for the same run; each case below builds the
// scenario and simulator exactly as gdisim_run does (collection every 6 s for
// validation, 30 s otherwise).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <string>

#include "config/loader.h"
#include "sim/fingerprint.h"
#include "sim/gdisim.h"

namespace gdisim {
namespace {

struct GoldenRun {
  std::uint64_t completed_ops = 0;
  std::uint64_t completed_series = 0;
  std::uint64_t login_count = 0;
  double login_total_ticks = 0.0;
};

GoldenRun run() {
  ValidationOptions opt;
  opt.experiment = 1;
  opt.seed = 42;
  opt.stop_launch_s = 3.0 * 60.0;
  Scenario scenario = make_validation_scenario(opt);
  const double tick = scenario.tick_seconds;
  GdiSimulator sim(std::move(scenario), SimulatorConfig{6.0, 2, 64});
  sim.run_for(6.0 * 60.0);

  GoldenRun out;
  for (auto& l : sim.scenario().launchers) {
    out.completed_series += l->series_completed();
    for (const auto& [op, stats] : l->stats()) {
      out.completed_ops += stats.count;
      if (op == "CAD.LOGIN") {
        out.login_count += stats.count;
        out.login_total_ticks += stats.total_s / tick;
      }
    }
  }
  return out;
}

TEST(Golden, FixedSeedMicroRunIsPinned) {
  const GoldenRun a = run();
  EXPECT_EQ(a.completed_ops, 159u);
  EXPECT_EQ(a.completed_series, 19u);
  EXPECT_EQ(a.login_count, 20u);
  EXPECT_DOUBLE_EQ(a.login_total_ticks, 5043.0);
}

struct FingerprintCase {
  const char* name;
  std::function<Scenario()> make;
  double hours;
  double collect_every_s;
  std::uint64_t fingerprint;
};

/// gdisim_run's validation defaults: a 38-minute horizon, launches stopping
/// three minutes before its end.
constexpr double kValidationHours = 38.0 / 60.0;

Scenario validation(int experiment) {
  ValidationOptions v;
  v.experiment = experiment;
  v.seed = 42;
  v.stop_launch_s = kValidationHours * 3600.0 - 3.0 * 60.0;
  return make_validation_scenario(v);
}

GlobalOptions small_global() {
  GlobalOptions g;
  g.scale = 0.05;
  g.seed = 42;
  return g;
}

const FingerprintCase kCases[] = {
    {"validation_exp1", [] { return validation(1); }, kValidationHours, 6.0,
     0xf7a874d7baa05186ULL},
    {"validation_exp2", [] { return validation(2); }, kValidationHours, 6.0,
     0xac7655c53833e00bULL},
    {"validation_exp3", [] { return validation(3); }, kValidationHours, 6.0,
     0x8dbe8404f9724756ULL},
    {"consolidated_1h_scale_0_05", [] { return make_consolidated_scenario(small_global()); }, 1.0,
     30.0, 0x735311b9c3a7c76fULL},
    {"multimaster_1h_scale_0_05", [] { return make_multimaster_scenario(small_global()); }, 1.0,
     30.0, 0x8fad3eced1294ceeULL},
    {"two_site_config_0_2h",
     [] { return load_scenario_file(GDISIM_SOURCE_DIR "/configs/two_site.gdisim"); }, 0.2, 30.0,
     0x719f8deaa506173aULL},
};

class GoldenFingerprint : public ::testing::TestWithParam<FingerprintCase> {};

TEST_P(GoldenFingerprint, MatchesPinnedValue) {
  const FingerprintCase& c = GetParam();
  SimulatorConfig cfg;
  cfg.threads = 0;
  cfg.collect_every_s = c.collect_every_s;
  GdiSimulator sim(c.make(), cfg);
  sim.run_until_seconds(c.hours * 3600.0);
  EXPECT_EQ(result_fingerprint(sim), c.fingerprint)
      << std::hex << "got " << result_fingerprint(sim) << ", pinned " << c.fingerprint;
}

INSTANTIATE_TEST_SUITE_P(Pins, GoldenFingerprint, ::testing::ValuesIn(kCases),
                         [](const ::testing::TestParamInfo<FingerprintCase>& p) {
                           return std::string(p.param.name);
                         });

}  // namespace
}  // namespace gdisim
