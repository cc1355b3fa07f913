#include "ch4/engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

#include "ch4/h_dispatch.h"
#include "ch4/scatter_gather.h"

namespace gdisim {
namespace {

class EngineTest : public ::testing::TestWithParam<int> {
 protected:
  std::unique_ptr<ExecutionEngine> make_engine() {
    switch (GetParam()) {
      case 0: return std::make_unique<SerialEngine>();
      case 1: return make_scatter_gather_engine(4);
      case 2: return make_h_dispatch_engine(4, 8);
      default: return make_h_dispatch_engine(0, 8);
    }
  }
};

TEST_P(EngineTest, VisitsEveryIndexExactlyOnce) {
  auto engine = make_engine();
  std::vector<std::atomic<int>> hits(1000);
  engine->for_each(1000, [&hits](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST_P(EngineTest, ZeroCountIsNoop) {
  auto engine = make_engine();
  std::atomic<int> calls{0};
  engine->for_each(0, [&calls](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST_P(EngineTest, SequentialPhasesDoNotOverlap) {
  auto engine = make_engine();
  std::atomic<long> sum{0};
  engine->for_each(100, [&sum](std::size_t i) { sum.fetch_add(static_cast<long>(i)); });
  const long first = sum.load();
  EXPECT_EQ(first, 4950);
  engine->for_each(100, [&sum](std::size_t i) { sum.fetch_add(static_cast<long>(i)); });
  EXPECT_EQ(sum.load(), 2 * 4950);
}

TEST_P(EngineTest, ManySmallPhases) {
  auto engine = make_engine();
  std::atomic<int> total{0};
  for (int round = 0; round < 200; ++round) {
    engine->for_each(7, [&total](std::size_t) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 200 * 7);
}

INSTANTIATE_TEST_SUITE_P(AllEngines, EngineTest, ::testing::Values(0, 1, 2, 3),
                         [](const ::testing::TestParamInfo<int>& tpi) {
                           switch (tpi.param) {
                             case 0: return std::string("serial");
                             case 1: return std::string("scatter_gather");
                             case 2: return std::string("h_dispatch");
                             default: return std::string("h_dispatch_inline");
                           }
                         });

TEST(HDispatchEngine, RespectsAgentSetChunking) {
  // With agent set 64 and 256 items, every item must still be visited once.
  HDispatchEngine engine(3, 64);
  std::vector<std::atomic<int>> hits(256);
  engine.for_each(256, [&hits](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_EQ(engine.agent_set_size(), 64u);
  EXPECT_EQ(engine.thread_count(), 3u);
}

TEST(HDispatchEngine, CountSmallerThanAgentSet) {
  HDispatchEngine engine(4, 64);
  std::atomic<int> calls{0};
  engine.for_each(3, [&calls](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 3);
}

TEST(ScatterGatherEngine, ReusableAfterManyRounds) {
  ScatterGatherEngine engine(2);
  std::atomic<int> total{0};
  for (int i = 0; i < 50; ++i) {
    engine.for_each(10, [&total](std::size_t) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 500);
}

}  // namespace
}  // namespace gdisim
