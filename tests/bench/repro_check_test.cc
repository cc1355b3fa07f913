// The reproduction driver's row evaluator on synthetic values: no simulation.
#include "repro_check.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace gdisim::repro {
namespace {

Check na_eu_band() {
  Check c;
  c.ref = "Table 6.1";
  c.what = "NA->EU (%)";
  c.paper = "43";
  c.lo = 33.0;
  c.hi = 53.0;
  return c;
}

/// NA->AS1 must be the busiest link, ties within 1 pp.
Check na_as1_busiest() {
  Check c;
  c.ref = "Table 6.1";
  c.what = "NA->AS1 (%)";
  c.paper = "busiest";
  c.above = {"Table 6.1: NA->EU (%)", "Table 6.1: AS1->AFR (%)"};
  c.tol = 1.0;
  return c;
}

TEST(ReproCheck, InBandRowPasses) {
  const Outcome o = evaluate(na_eu_band(), {{"Table 6.1: NA->EU (%)", 44.9}});
  EXPECT_EQ(o.status, Status::kOk);
  EXPECT_FALSE(fails(o.status));
  EXPECT_DOUBLE_EQ(o.measured, 44.9);
  EXPECT_EQ(o.band, "[33.0, 53.0]");
  // Both edges belong to the band, so a link that must read 0 passes at 0.
  EXPECT_EQ(evaluate(na_eu_band(), {{"Table 6.1: NA->EU (%)", 53.0}}).status, Status::kOk);
}

TEST(ReproCheck, UnmarkedMissFails) {
  const Outcome o = evaluate(na_eu_band(), {{"Table 6.1: NA->EU (%)", 20.7}});
  EXPECT_EQ(o.status, Status::kFail);
  EXPECT_TRUE(fails(o.status));
}

TEST(ReproCheck, KnownDeviationMissesWithoutFailing) {
  Check c = na_eu_band();
  c.known_deviation = true;
  const Outcome o = evaluate(c, {{"Table 6.1: NA->EU (%)", 20.7}});
  EXPECT_EQ(o.status, Status::kKnownDeviation);
  EXPECT_FALSE(fails(o.status));
}

TEST(ReproCheck, KnownDeviationThatLandsInBandFails) {
  Check c = na_eu_band();
  c.known_deviation = true;
  const Outcome o = evaluate(c, {{"Table 6.1: NA->EU (%)", 44.9}});
  EXPECT_EQ(o.status, Status::kUnexpectedPass);
  EXPECT_TRUE(fails(o.status));
}

TEST(ReproCheck, OrderingRowComparesWithTheLargestRival) {
  Measurements m{{"Table 6.1: NA->AS1 (%)", 54.2},
                 {"Table 6.1: NA->EU (%)", 44.9},
                 {"Table 6.1: AS1->AFR (%)", 49.3}};
  Outcome o = evaluate(na_as1_busiest(), m);
  EXPECT_EQ(o.status, Status::kOk);
  EXPECT_EQ(o.band, "> 48.3 (Table 6.1: AS1->AFR (%) - 1.0)");

  m["Table 6.1: NA->EU (%)"] = 54.9;  // a tie within 1 pp still holds
  EXPECT_EQ(evaluate(na_as1_busiest(), m).status, Status::kOk);

  m["Table 6.1: NA->EU (%)"] = 56.0;  // NA->EU is now the busiest link
  o = evaluate(na_as1_busiest(), m);
  EXPECT_EQ(o.status, Status::kFail);
  EXPECT_EQ(o.band, "> 55.0 (Table 6.1: NA->EU (%) - 1.0)");
}

TEST(ReproCheck, UnmeasuredQuantityThrowsNamingIt) {
  try {
    evaluate(na_as1_busiest(), {{"Table 6.1: NA->AS1 (%)", 54.2}});
    FAIL() << "expected std::out_of_range";
  } catch (const std::out_of_range& e) {
    EXPECT_NE(std::string(e.what()).find("Table 6.1: NA->EU (%)"), std::string::npos);
  }
}

}  // namespace
}  // namespace gdisim::repro
