#include "config/loader.h"

#include <gtest/gtest.h>

#include <sstream>

#include "sim/gdisim.h"

namespace gdisim {
namespace {

constexpr const char* kSample = R"(
# two-site deployment
tick 0.02
seed 7
master HQ

datacenter HQ
  switch 40
  san 2 24 15000
  tier app 2 4 32
  tier db 1 8 64
  tier fs 1 4 16
  tier idx 1 4 32
end

datacenter BRANCH
  san 1 8 15000
  tier fs 1 4 16
end

link HQ BRANCH 0.155 40 0.2
backup_link HQ BRANCH2 0 0 0   # replaced below; see BadBackup test

population CAD@BRANCH BRANCH CAD 20
  hours 8 17
  think 25
  size 25
end

population VIS@HQ HQ VIS 15
end

growth HQ 2000 8 17
growth BRANCH 500

synchrep HQ 900
indexbuild HQ 300
)";

std::string sample_without_bad_backup() {
  std::string s = kSample;
  const auto pos = s.find("backup_link");
  const auto eol = s.find('\n', pos);
  s.erase(pos, eol - pos);
  return s;
}

TEST(Loader, ParsesFullScenario) {
  std::istringstream is(sample_without_bad_backup());
  Scenario s = load_scenario(is);
  EXPECT_DOUBLE_EQ(s.tick_seconds, 0.02);
  EXPECT_EQ(s.topology->dc_count(), 2u);
  EXPECT_EQ(s.master_dc, s.topology->find_dc("HQ"));
  EXPECT_NE(s.dc("HQ").tier(TierKind::App), nullptr);
  EXPECT_EQ(s.dc("BRANCH").tier(TierKind::App), nullptr);
  ASSERT_EQ(s.populations.size(), 2u);
  EXPECT_EQ(s.populations[0]->config().name, "CAD@BRANCH");
  EXPECT_DOUBLE_EQ(s.populations[0]->config().think_time_mean_s, 25.0);
  EXPECT_DOUBLE_EQ(s.populations[0]->config().curve.peak(), 20.0);
  EXPECT_DOUBLE_EQ(s.populations[1]->config().curve.at_hour(3.0), 15.0);  // constant
  ASSERT_EQ(s.synchreps.size(), 1u);
  ASSERT_EQ(s.indexbuilds.size(), 1u);
  EXPECT_NEAR(s.growth.rate_mb_per_hour(s.topology->find_dc("BRANCH"), 12.0), 500.0, 1e-9);
}

TEST(Loader, LoadedScenarioActuallyRuns) {
  std::istringstream is(sample_without_bad_backup());
  Scenario s = load_scenario(is);
  GdiSimulator sim(std::move(s), SimulatorConfig{6.0});
  sim.run_for(120.0);
  std::uint64_t completed = 0;
  for (auto& p : sim.scenario().populations) completed += p->completed_operations();
  EXPECT_GT(completed, 5u);
  EXPECT_GT(sim.collector().find("cpu/HQ/app")->max_value(), 0.0);
}

TEST(Loader, ScaleOverrideScalesLoadNotHardware) {
  std::istringstream is(sample_without_bad_backup());
  Scenario s = load_scenario(is, "<stream>", 2.0);
  EXPECT_DOUBLE_EQ(s.scale, 2.0);
  // Population peaks and growth rates double; declared hardware (tier
  // shapes, SAN, links) stays exactly as written in the file.
  EXPECT_DOUBLE_EQ(s.populations[0]->config().curve.peak(), 40.0);
  EXPECT_DOUBLE_EQ(s.populations[1]->config().curve.at_hour(3.0), 30.0);
  EXPECT_NEAR(s.growth.rate_mb_per_hour(s.topology->find_dc("BRANCH"), 12.0), 1000.0, 1e-9);
  EXPECT_EQ(s.dc("HQ").tier(TierKind::App)->server_count(), 2u);
}

TEST(Loader, ScaleOverrideClampsToOneClient) {
  std::istringstream is(sample_without_bad_backup());
  Scenario s = load_scenario(is, "<stream>", 0.001);
  ASSERT_EQ(s.populations.size(), 2u);  // no population silently dropped
  for (const auto& p : s.populations) EXPECT_GE(p->slot_count(), 1u) << p->name();
}

TEST(Loader, ScaleOverrideMustBePositive) {
  std::istringstream is(sample_without_bad_backup());
  EXPECT_THROW(load_scenario(is, "<stream>", 0.0), std::invalid_argument);
  std::istringstream is2(sample_without_bad_backup());
  EXPECT_THROW(load_scenario(is2, "<stream>", -1.0), std::invalid_argument);
}

TEST(Loader, CommentsAndBlankLinesIgnored) {
  std::istringstream is("# only comments\n\ndatacenter A\n tier fs 1 2 8\n san 1 4 15000\nend\n");
  Scenario s = load_scenario(is);
  EXPECT_EQ(s.topology->dc_count(), 1u);
}

TEST(Loader, ErrorsCarryLineNumbers) {
  std::istringstream is("tick 0.02\nbogus_directive 1\n");
  try {
    load_scenario(is, "sample.gdisim");
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    // Editor-friendly "<source>:<line>:" prefix plus the offending token.
    EXPECT_NE(std::string(e.what()).find("sample.gdisim:2:"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("bogus_directive"), std::string::npos) << e.what();
  }
}

TEST(Loader, ErrorsQuoteOffendingToken) {
  struct Case {
    const char* body;
    const char* want;  // substring the message must contain
  };
  const Case cases[] = {
      {"tick nope\n", "<stream>:1:"},
      {"tick nope\n", "'nope'"},
      {"tick -1\ndatacenter A\nend\n", "'-1'"},
      {"datacenter A\n tier fs 1.5 1 1\nend\n", "'1.5'"},
      {"datacenter A\n weird 1\nend\n", "'weird'"},
      {"datacenter A\n san 1 4 15000\n tier fs 1 1 1\nend\npopulation P NOPE CAD 5\nend\n",
       "unknown datacenter 'NOPE'"},
      {"tick 0.02\nregime auto\n  epoch 2\nend\n", "<stream>:2: unknown directive 'regime'"},
      {"tick nan\n", "<stream>:1: expected a number, got 'nan'"},
      {"tick 0.02s\n", "<stream>:1: expected a number, got '0.02s'"},
      {"seed -1\n", "<stream>:1: expected a non-negative integer, got '-1'"},
      {"datacenter A\n switch 0\nend\n", "<stream>:2: switch bandwidth must be > 0, got '0'"},
      {"datacenter A\n tier fs 1 1 1\nend\ndatacenter B\n tier fs 1 1 1\nend\n"
       "link A B 1 10 7\n",
       "<stream>:7: link allocation must be in (0, 1], got '7'"},
      {"datacenter A\n tier fs 1 1 1\nend\npopulation P A CAD -20\nend\n",
       "<stream>:4: population peak must be > 0, got '-20'"},
      {"datacenter A\n tier fs 1 1 1\nend\npopulation P A CAD 5\n think -5\nend\n",
       "<stream>:5: think time must be >= 0, got '-5'"},
      {"datacenter A\n tier fs 1 1 1\nend\npopulation P A CAD 5\n size inf\nend\n",
       "<stream>:5: expected a number, got 'inf'"},
      {"datacenter A\n tier fs 1 1 1\nend\nlink A B 1 10\n",
       "<stream>:4: link references unknown datacenter 'B'"},
      {"master H\ndatacenter A\n tier fs 1 1 1\nend\nsynchrep A 900\n",
       "<stream>:1: master references unknown datacenter 'H'"},
      {"datacenter A\n tier fs 1 1 1\nend\ndatacenter B\n tier fs 1 1 1\nend\n"
       "link A B 1 10\nlink B A 1 10\n",
       "<stream>:8: duplicate link between 'A' and 'B' (first at line 7)"},
      {"datacenter A\n tier fs 1 1 1\nend\nlink A A 1 10\n",
       "<stream>:4: link joins datacenter 'A' to itself"},
      {"master A\ndatacenter A\n tier app 1 1 1\n tier db 1 1 1\n tier fs 1 1 1\n"
       " tier idx 1 1 1\nend\ndatacenter B\n tier fs 1 1 1\nend\npopulation P B CAD 5\nend\n",
       "<stream>:11: population 'P' cannot run: Topology: no route B->A"},
      {"master A\ndatacenter A\n tier app 1 1 1\n tier db 1 1 1\n tier fs 1 1 1\n"
       " tier idx 1 1 1\nend\ndatacenter B\n tier fs 1 1 1\nend\nsynchrep A 900\n",
       "<stream>:11: synchrep A cannot run: Topology: no route"},
      {"datacenter A\n tier fs 1 1 1\nend\npopulation P A CAD 5\nend\n",
       "<stream>:4: population 'P' cannot run: OperationContext: no tier 'app'"},
      {"datacenter A\n tier fs 1 1 1\nend\npopulation P A CAD 4294967296\nend\n",
       "<stream>:4: population peak must be <= 4294967294 clients at scale 1, got '4294967296'"},
      {"datacenter A\n tier fs 1 1 1\nend\npopulation P A CAD 1e30\nend\n",
       "<stream>:4: population peak must be <= 4294967294 clients at scale 1, got '1e30'"},
  };
  for (const Case& c : cases) {
    std::istringstream is(c.body);
    try {
      load_scenario(is);
      FAIL() << "expected throw for: " << c.body;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(c.want), std::string::npos)
          << "message '" << e.what() << "' lacks '" << c.want << "'";
    }
  }
}

TEST(Loader, FileErrorsCarryThePath) {
  try {
    load_scenario_file(GDISIM_SOURCE_DIR "/configs/two_site.gdisim");
  } catch (...) {
    FAIL() << "sample config should parse";
  }
}

TEST(Loader, RejectsMalformedInput) {
  auto expect_throw = [](const std::string& body) {
    std::istringstream is(body);
    EXPECT_THROW(load_scenario(is), std::invalid_argument) << body;
  };
  expect_throw("");                                       // no datacenter
  expect_throw("tick 0\ndatacenter A\nend\n");            // bad tick
  expect_throw("datacenter A\n tier bogus 1 1 1\nend\n"); // bad tier kind
  expect_throw("datacenter A\n tier fs 1 1 1\n");         // unterminated block
  expect_throw("datacenter A\n tier fs 1 1 1\nend\nlink A\n");  // short link
  expect_throw("datacenter A\n tier fs x 1 1\nend\n");    // non-numeric
  // Population referencing unknown dc / app.
  expect_throw(
      "datacenter A\n tier fs 1 1 1\n san 1 4 15000\nend\npopulation P NOPE CAD 5\nend\n");
  expect_throw(
      "datacenter A\n tier fs 1 1 1\n san 1 4 15000\nend\npopulation P A NOPE 5\nend\n");
}

TEST(Loader, BackupLinksAreUnusable) {
  std::istringstream is(R"(
datacenter A
 tier fs 1 2 8
 san 1 4 15000
end
datacenter B
 tier fs 1 2 8
 san 1 4 15000
end
link A B 1 10
backup_link A B 0.5 20
)");
  // Duplicate pair: the second (backup) add throws -> loader surfaces it.
  EXPECT_THROW(load_scenario(is), std::logic_error);
}

TEST(Loader, FileNotFound) {
  EXPECT_THROW(load_scenario_file("/nonexistent/path.gdisim"), std::invalid_argument);
}

TEST(Loader, SampleConfigFileParses) {
  // The repository ships runnable sample configs.
  Scenario s = load_scenario_file(GDISIM_SOURCE_DIR "/configs/two_site.gdisim");
  EXPECT_GE(s.topology->dc_count(), 2u);
  EXPECT_FALSE(s.populations.empty());
}

}  // namespace
}  // namespace gdisim
