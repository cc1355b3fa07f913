#include "core/sim_loop.h"

#include <gtest/gtest.h>

#include <vector>

namespace gdisim {
namespace {

class RecordingAgent final : public Agent {
 public:
  void on_tick(Tick now) override { ticks.push_back(now); }
  void on_interactions(Tick now) override { interactions.push_back(now); }
  std::vector<Tick> ticks;
  std::vector<Tick> interactions;
};

TEST(SimulationLoop, AdvancesTime) {
  SimulationLoop loop({0.01, 0});
  RecordingAgent a;
  loop.add_agent(&a);
  loop.run_until(10);
  EXPECT_EQ(loop.now(), 10);
  EXPECT_DOUBLE_EQ(loop.now_seconds(), 0.1);
  ASSERT_EQ(a.ticks.size(), 10u);
  EXPECT_EQ(a.ticks.front(), 0);
  EXPECT_EQ(a.ticks.back(), 9);
}

TEST(SimulationLoop, InteractionPhaseSeesNowPlusOne) {
  SimulationLoop loop({0.01, 0});
  RecordingAgent a;
  loop.add_agent(&a);
  loop.step();
  ASSERT_EQ(a.interactions.size(), 1u);
  EXPECT_EQ(a.interactions[0], 1);  // tick 0's interaction phase drains <= 1
}

TEST(SimulationLoop, AgentIdsAreDense) {
  SimulationLoop loop({0.01, 0});
  RecordingAgent a, b, c;
  EXPECT_EQ(loop.add_agent(&a), 0u);
  EXPECT_EQ(loop.add_agent(&b), 1u);
  EXPECT_EQ(loop.add_agent(&c), 2u);
  EXPECT_EQ(loop.agent_count(), 3u);
}

TEST(SimulationLoop, CollectCallbackFiresAtConfiguredCadence) {
  SimulationLoop loop({0.01, 5});
  RecordingAgent a;
  loop.add_agent(&a);
  std::vector<Tick> collected;
  loop.set_collect_callback([&collected](Tick t) { collected.push_back(t); });
  loop.run_until(20);
  ASSERT_EQ(collected.size(), 4u);
  EXPECT_EQ(collected[0], 5);
  EXPECT_EQ(collected[3], 20);
}

TEST(SimulationLoop, RunForSecondsRoundsUp) {
  SimulationLoop loop({0.01, 0});
  RecordingAgent a;
  loop.add_agent(&a);
  loop.run_for_seconds(0.095);  // 9.5 ticks -> 10
  EXPECT_EQ(loop.now(), 10);
}

TEST(SimulationLoop, RejectsNullAgent) {
  SimulationLoop loop({0.01, 0});
  EXPECT_THROW(loop.add_agent(nullptr), std::invalid_argument);
}

TEST(Inbox, DrainRespectsVisibility) {
  Inbox<int> inbox;
  inbox.post(5, 0, 0, 100);
  inbox.post(3, 0, 1, 200);
  auto ready = inbox.drain_visible(4);
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_EQ(ready[0].payload, 200);
  EXPECT_EQ(inbox.size(), 1u);
  ready = inbox.drain_visible(5);
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_EQ(ready[0].payload, 100);
}

TEST(Inbox, DrainOrderIsDeterministic) {
  // Regardless of post order, drain sorts by (visible_at, sender, seq).
  Inbox<int> a, b;
  a.post(1, 2, 0, 20);
  a.post(1, 1, 1, 11);
  a.post(1, 1, 0, 10);
  b.post(1, 1, 0, 10);
  b.post(1, 2, 0, 20);
  b.post(1, 1, 1, 11);
  auto ra = a.drain_visible(1);
  auto rb = b.drain_visible(1);
  ASSERT_EQ(ra.size(), 3u);
  ASSERT_EQ(rb.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(ra[i].payload, rb[i].payload);
  EXPECT_EQ(ra[0].payload, 10);
  EXPECT_EQ(ra[1].payload, 11);
  EXPECT_EQ(ra[2].payload, 20);
}

TEST(Inbox, InterleavedPostAndDrainLosesNothing) {
  // Posts keep arriving between drains, most of them not yet visible; every
  // delivery comes out exactly once, in post order (one sender, rising seq).
  Inbox<int> inbox;
  std::vector<int> drained;
  Tick now = 0;
  for (int i = 0; i < 20000; ++i) {
    inbox.post(i / 10, 0, static_cast<std::uint64_t>(i), i);
    if (i % 37 == 0) {
      for (const auto& d : inbox.drain_visible(now++)) drained.push_back(d.payload);
    }
  }
  for (const auto& d : inbox.drain_visible(1 << 20)) drained.push_back(d.payload);
  EXPECT_TRUE(inbox.empty());
  ASSERT_EQ(drained.size(), 20000u);
  for (int i = 0; i < 20000; ++i) EXPECT_EQ(drained[static_cast<std::size_t>(i)], i);
}

TEST(TickClock, Conversions) {
  TickClock clock(0.05);
  EXPECT_DOUBLE_EQ(clock.to_seconds(20), 1.0);
  EXPECT_EQ(clock.to_ticks(1.0), 20);
  EXPECT_EQ(clock.to_ticks(1.01), 21);   // rounds up
  EXPECT_EQ(clock.to_ticks(0.0), 0);
  EXPECT_EQ(clock.to_ticks(-1.0), 0);
}

TEST(FormatSimTime, Format) {
  EXPECT_EQ(format_sim_time(0), "0:00:00");
  EXPECT_EQ(format_sim_time(3661), "1:01:01");
  EXPECT_EQ(format_sim_time(86399), "23:59:59");
}

}  // namespace
}  // namespace gdisim
