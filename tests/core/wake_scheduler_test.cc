// Active-set scheduler machinery (DESIGN.md "Scheduler"): the WakeCalendar
// timing wheel (wrap-around, far-horizon heap, re-arm/disarm laziness) and
// the SimulationLoop wake paths — quiescent agents parked via next_wake_tick
// must be revived by calendar wakes, inbox posts, and explicit wake() calls.
#include <gtest/gtest.h>

#include <vector>

#include "core/sim_loop.h"
#include "core/wake_calendar.h"

namespace gdisim {
namespace {

std::vector<AgentId> due_at(WakeCalendar& cal, Tick now) {
  std::vector<AgentId> out;
  cal.collect_due(now, [&out](AgentId id) { out.push_back(id); });
  return out;
}

TEST(WakeCalendar, RoundsSlotsToPowerOfTwo) {
  WakeCalendar cal(100);
  EXPECT_EQ(cal.wheel_slots(), 128u);
}

TEST(WakeCalendar, ArmAndCollectAtExactTick) {
  WakeCalendar cal(8);
  cal.ensure_agents(2);
  cal.arm(0, 5, 0);
  for (Tick t = 0; t <= 10; ++t) {
    auto due = due_at(cal, t);
    if (t == 5) {
      ASSERT_EQ(due.size(), 1u) << "tick " << t;
      EXPECT_EQ(due[0], 0u);
    } else {
      EXPECT_TRUE(due.empty()) << "tick " << t;
    }
  }
  // Consumed: the arm does not repeat on the next wheel revolution.
  EXPECT_EQ(cal.armed_at(0), kNeverTick);
}

TEST(WakeCalendar, WrapAroundDoesNotAliasAcrossRevolutions) {
  // Ticks 3 and 11 share slot 3 of an 8-slot wheel; the earlier tick must
  // not fire the later reservation.
  WakeCalendar cal(8);
  cal.ensure_agents(2);
  cal.arm(0, 3, 0);
  cal.arm(1, 11, 3);  // filed from tick 3: 11 - 3 == wheel size -> far heap
  std::vector<std::pair<Tick, AgentId>> fired;
  for (Tick t = 0; t <= 12; ++t) {
    for (AgentId id : due_at(cal, t)) fired.emplace_back(t, id);
  }
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_EQ(fired[0], (std::pair<Tick, AgentId>{3, 0}));
  EXPECT_EQ(fired[1], (std::pair<Tick, AgentId>{11, 1}));
}

TEST(WakeCalendar, SameSlotWithinOneRevolution) {
  // 10 - 2 < 8, so tick 10 files into slot 2 while an arm for tick 2 is
  // still pending there; the slot sweep must separate them by armed time.
  WakeCalendar cal(8);
  cal.ensure_agents(2);
  cal.arm(0, 2, 0);
  cal.arm(1, 10, 2);
  std::vector<std::pair<Tick, AgentId>> fired;
  for (Tick t = 0; t <= 10; ++t) {
    for (AgentId id : due_at(cal, t)) fired.emplace_back(t, id);
  }
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_EQ(fired[0], (std::pair<Tick, AgentId>{2, 0}));
  EXPECT_EQ(fired[1], (std::pair<Tick, AgentId>{10, 1}));
}

TEST(WakeCalendar, FarHorizonWakesThroughHeap) {
  WakeCalendar cal(8);
  cal.ensure_agents(1);
  const Tick far = 1000;  // >> 8 slots
  cal.arm(0, far, 0);
  for (Tick t = 0; t < far; ++t) EXPECT_TRUE(due_at(cal, t).empty()) << t;
  auto due = due_at(cal, far);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0], 0u);
}

TEST(WakeCalendar, RearmLaterKeepsOnlyTheNewTime) {
  WakeCalendar cal(8);
  cal.ensure_agents(1);
  cal.arm(0, 4, 0);
  cal.arm(0, 6, 0);  // overrides; slot-4 entry is now stale
  std::vector<std::pair<Tick, AgentId>> fired;
  for (Tick t = 0; t <= 8; ++t) {
    for (AgentId id : due_at(cal, t)) fired.emplace_back(t, id);
  }
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], (std::pair<Tick, AgentId>{6, 0}));
}

TEST(WakeCalendar, RearmAcrossWrapRefilesStaleEntry) {
  // Stale slot-3 entry is visited at tick 3 but the agent was re-armed to
  // tick 11 (same slot, next revolution); the sweep must keep the
  // reservation alive rather than dropping it.
  WakeCalendar cal(8);
  cal.ensure_agents(1);
  cal.arm(0, 3, 0);
  cal.arm(0, 11, 0);  // far heap from tick 0, but the slot entry is stale
  std::vector<std::pair<Tick, AgentId>> fired;
  for (Tick t = 0; t <= 12; ++t) {
    for (AgentId id : due_at(cal, t)) fired.emplace_back(t, id);
  }
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], (std::pair<Tick, AgentId>{11, 0}));
}

TEST(WakeCalendar, DisarmCancelsPendingWake) {
  WakeCalendar cal(8);
  cal.ensure_agents(1);
  cal.arm(0, 5, 0);
  cal.disarm(0);
  for (Tick t = 0; t <= 8; ++t) EXPECT_TRUE(due_at(cal, t).empty()) << t;
}

// --- SimulationLoop wake-path tests -------------------------------------

/// Parks until `wake_at`, then goes fully quiescent.
class NapAgent final : public Agent {
 public:
  explicit NapAgent(Tick wake_at) : wake_at_(wake_at) {}
  void on_tick(Tick now) override { ticks.push_back(now); }
  Tick next_wake_tick(Tick next_now) const override {
    return next_now <= wake_at_ ? wake_at_ : kNeverTick;
  }
  std::vector<Tick> ticks;

 private:
  Tick wake_at_;
};

/// Quiescent unless its inbox holds deliveries; drains them on interaction.
class SleeperAgent final : public Agent {
 public:
  SleeperAgent() { inbox.bind_owner(this); }
  void on_tick(Tick now) override { ticks.push_back(now); }
  void on_interactions(Tick now) override {
    interactions.push_back(now);
    for (auto& d : inbox.drain_visible(now)) received.push_back(d.payload);
  }
  Tick next_wake_tick(Tick next_now) const override {
    return inbox.empty() ? kNeverTick : next_now;
  }
  Inbox<int> inbox;
  std::vector<Tick> ticks;
  std::vector<Tick> interactions;
  std::vector<int> received;
};

/// Always active; posts one message to a sleeper at a chosen tick.
class PosterAgent final : public Agent {
 public:
  PosterAgent(SleeperAgent* target, Tick post_at) : target_(target), post_at_(post_at) {}
  void on_tick(Tick now) override {
    if (now == post_at_) target_->inbox.post(now + 1, id(), next_send_seq(), 42);
  }

 private:
  SleeperAgent* target_;
  Tick post_at_;
};

TEST(ActiveSetLoop, CalendarWakeRunsAgentOnlyAtRequestedTick) {
  SimulationLoop loop({0.01, 0});
  ASSERT_EQ(loop.scheduler_mode(), SchedulerMode::kActiveSet);
  NapAgent nap(7);
  loop.add_agent(&nap);
  loop.run_until(12);
  // Every agent runs its first iteration; then nothing until the armed tick.
  ASSERT_EQ(nap.ticks.size(), 2u);
  EXPECT_EQ(nap.ticks[0], 0);
  EXPECT_EQ(nap.ticks[1], 7);
  EXPECT_LT(loop.scheduler_stats().mean_active(), 1.0);
}

TEST(ActiveSetLoop, PostWhileQuiescentWakesReceiverSameIteration) {
  SimulationLoop loop({0.01, 0});
  SleeperAgent sleeper;
  PosterAgent poster(&sleeper, 5);
  loop.add_agent(&sleeper);
  loop.add_agent(&poster);
  loop.run_until(10);
  // Tick-phase post at now=5 (visible_at 6) must be absorbed by the same
  // iteration's interaction phase — one-tick latency, same as dense.
  ASSERT_EQ(sleeper.received.size(), 1u);
  EXPECT_EQ(sleeper.received[0], 42);
  ASSERT_GE(sleeper.interactions.size(), 2u);
  EXPECT_EQ(sleeper.interactions[0], 1);  // initial all-run iteration
  EXPECT_EQ(sleeper.interactions[1], 6);  // woken by the post at now=5
  // The sleeper skipped ticks 1..4 entirely.
  ASSERT_EQ(sleeper.ticks.size(), 1u);
  EXPECT_EQ(sleeper.ticks[0], 0);
}

TEST(ActiveSetLoop, ExplicitWakeReactivatesParkedAgent) {
  SimulationLoop loop({0.01, 0});
  SleeperAgent sleeper;
  const AgentId id = loop.add_agent(&sleeper);
  loop.run_until(4);
  ASSERT_EQ(sleeper.ticks.size(), 1u);  // parked after the initial iteration
  loop.wake(id);
  loop.step();
  ASSERT_EQ(sleeper.ticks.size(), 2u);
  EXPECT_EQ(sleeper.ticks[1], 4);
}

TEST(ActiveSetLoop, DenseSweepIgnoresWakePolicy) {
  SimulationLoop loop({0.01, 0, SchedulerMode::kDenseSweep});
  SleeperAgent sleeper;
  loop.add_agent(&sleeper);
  loop.run_until(5);
  EXPECT_EQ(sleeper.ticks.size(), 5u);
  EXPECT_DOUBLE_EQ(loop.scheduler_stats().occupancy(), 1.0);
}

TEST(ActiveSetLoop, EveryTickAgentStaysActive) {
  SimulationLoop loop({0.01, 0});
  // Base Agent answers kEveryTick: active-set behaviour must match dense.
  class Dense final : public Agent {
   public:
    void on_tick(Tick now) override { ticks.push_back(now); }
    std::vector<Tick> ticks;
  } dense;
  loop.add_agent(&dense);
  loop.run_until(6);
  ASSERT_EQ(dense.ticks.size(), 6u);
  EXPECT_DOUBLE_EQ(loop.scheduler_stats().occupancy(), 1.0);
}

TEST(ActiveSetLoop, RepeatedCalendarNapsRearmCorrectly) {
  // An agent that repeatedly naps exercises arm -> fire -> re-arm through
  // the loop's own calendar rather than a hand-driven one.
  class Strider final : public Agent {
   public:
    void on_tick(Tick now) override { ticks.push_back(now); }
    Tick next_wake_tick(Tick next_now) const override {
      const Tick next = ((next_now + 9) / 10) * 10;  // multiples of 10
      return next;
    }
    std::vector<Tick> ticks;
  };
  SimulationLoop loop({0.01, 0});
  Strider s;
  loop.add_agent(&s);
  loop.run_until(55);
  ASSERT_EQ(s.ticks.size(), 6u);  // 0 (initial), 10, 20, 30, 40, 50
  for (std::size_t i = 1; i < s.ticks.size(); ++i) {
    EXPECT_EQ(s.ticks[i], static_cast<Tick>(i) * 10);
  }
}

}  // namespace
}  // namespace gdisim
