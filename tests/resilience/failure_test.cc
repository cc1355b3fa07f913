#include "resilience/failure.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "config/builder.h"
#include "hardware/component.h"

namespace gdisim {
namespace {

struct FailoverWorld {
  std::unique_ptr<Topology> topology;
  std::unique_ptr<SimulationLoop> loop;
  DcId na = 0, eu = 0, afr = 0;

  FailoverWorld() {
    InfrastructureBuilder builder(3);
    for (const char* name : {"NA", "EU", "AFR"}) {
      DataCenterBlueprint bp;
      bp.name = name;
      bp.tiers[TierKind::App] = TierNotation{2, 2, 16.0};
      builder.add_datacenter(bp);
    }
    builder.connect_duplex("NA", "EU", LinkNotation{0.155, 50.0, 1.0});
    builder.connect_duplex("NA", "AFR", LinkNotation{0.155, 50.0, 1.0});
    // Backup path, unused by default (thesis Table 6.1 EU->AFR rows).
    builder.connect_duplex("EU", "AFR", LinkNotation{0.045, 80.0, 1.0}, /*usable=*/false);
    topology = builder.finish();
    na = topology->find_dc("NA");
    eu = topology->find_dc("EU");
    afr = topology->find_dc("AFR");
    loop = std::make_unique<SimulationLoop>(SimLoopConfig{0.01, 0});
    topology->register_with(*loop);
  }
};

TEST(FailureEvent, Factories) {
  FailureEvent down = FailureEvent::link_down(5.0, 1, 2);
  EXPECT_EQ(down.kind, FailureEvent::Kind::kLinkDown);
  EXPECT_DOUBLE_EQ(down.at_seconds, 5.0);
  EXPECT_EQ(down.from, 1u);
  EXPECT_EQ(down.to, 2u);
  FailureEvent up = FailureEvent::server_up(6.0, 0, TierKind::Db, 3);
  EXPECT_EQ(up.kind, FailureEvent::Kind::kServerUp);
  EXPECT_EQ(up.tier, TierKind::Db);
  EXPECT_EQ(up.server_index, 3u);
}

TEST(FailureInjector, LinkFailoverReroutesToBackup) {
  FailoverWorld world;
  // Initially NA->AFR is direct.
  ASSERT_EQ(world.topology->route(world.na, world.afr).size(), 1u);

  FailureInjector injector(*world.topology);
  injector.schedule(FailureEvent::link_down(0.5, world.na, world.afr));
  injector.schedule(FailureEvent::link_up(0.5, world.eu, world.afr));
  injector.install(*world.loop);
  EXPECT_EQ(injector.pending(), 2u);

  world.loop->run_for_seconds(1.0);
  EXPECT_EQ(injector.pending(), 0u);
  ASSERT_EQ(injector.applied().size(), 2u);

  // New route: NA -> EU -> AFR over the activated backup.
  const auto& r = world.topology->route(world.na, world.afr);
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(r[0], world.topology->link(world.na, world.eu));
  EXPECT_EQ(r[1], world.topology->link(world.eu, world.afr));
  EXPECT_FALSE(world.topology->link_usable(world.na, world.afr));
  EXPECT_TRUE(world.topology->link_usable(world.eu, world.afr));
}

TEST(FailureInjector, LinkRecoveryRestoresDirectRoute) {
  FailoverWorld world;
  FailureInjector injector(*world.topology);
  injector.schedule(FailureEvent::link_down(0.1, world.na, world.afr));
  injector.schedule(FailureEvent::link_up(0.1, world.eu, world.afr));
  injector.schedule(FailureEvent::link_up(0.5, world.na, world.afr));
  injector.install(*world.loop);
  world.loop->run_for_seconds(1.0);
  // Direct link is back; fewest-hop routing prefers it again.
  EXPECT_EQ(world.topology->route(world.na, world.afr).size(), 1u);
}

TEST(FailureInjector, ServerFailureSkipsDeadServer) {
  FailoverWorld world;
  Tier* app = world.topology->dc(world.na).tier(TierKind::App);
  ASSERT_EQ(app->alive_count(), 2u);

  FailureInjector injector(*world.topology);
  injector.schedule(FailureEvent::server_down(0.2, world.na, TierKind::App, 0));
  injector.install(*world.loop);
  world.loop->run_for_seconds(0.5);

  EXPECT_EQ(app->alive_count(), 1u);
  EXPECT_FALSE(app->server_alive(0));
  for (std::uint64_t key = 0; key < 16; ++key) {
    EXPECT_EQ(&app->pick_server(key), &app->server(1));
  }
}

TEST(FailureInjector, ServerRecoveryRestoresBalancing) {
  FailoverWorld world;
  Tier* app = world.topology->dc(world.na).tier(TierKind::App);
  FailureInjector injector(*world.topology);
  injector.schedule(FailureEvent::server_down(0.1, world.na, TierKind::App, 1));
  injector.schedule(FailureEvent::server_up(0.4, world.na, TierKind::App, 1));
  injector.install(*world.loop);
  world.loop->run_for_seconds(1.0);
  EXPECT_EQ(app->alive_count(), 2u);
  EXPECT_EQ(&app->pick_server(1), &app->server(1));
}

TEST(Tier, AllServersDeadFallsBackToFirst) {
  FailoverWorld world;
  Tier* app = world.topology->dc(world.na).tier(TierKind::App);
  app->set_server_alive(0, false);
  app->set_server_alive(1, false);
  EXPECT_EQ(app->alive_count(), 0u);
  EXPECT_EQ(&app->pick_server(7), &app->server(0));  // degraded mode
}

TEST(FailureInjector, EventsApplyAtTheScheduledTick) {
  FailoverWorld world;
  FailureInjector injector(*world.topology);
  injector.schedule(FailureEvent::link_down(0.5, world.na, world.afr));
  injector.install(*world.loop);
  world.loop->run_for_seconds(0.4);
  EXPECT_TRUE(world.topology->link_usable(world.na, world.afr));
  world.loop->run_for_seconds(0.2);
  EXPECT_FALSE(world.topology->link_usable(world.na, world.afr));
}

TEST(Topology, SetUsableOnUnknownLinkThrows) {
  FailoverWorld world;
  EXPECT_THROW(world.topology->set_link_usable(world.eu, world.eu, false), std::out_of_range);
}

// ---------------------------------------------------------------------------
// Failures interacting with quiesced (kNeverTick) agents under the
// active-set scheduler: a component that has been parked since registration
// must still serve work that arrives after a failover routes traffic to it.

struct StageRecorder final : StageCompletionHandler {
  std::vector<std::pair<Tick, std::uint64_t>> done;
  void on_stage_complete(Component& /*at*/, Tick now, std::uint64_t tag) override {
    done.emplace_back(now, tag);
  }
};

/// Stays in the active set until it has sent its one job, then parks itself.
class OneShotSender final : public Agent {
 public:
  OneShotSender(Component* target, Tick send_at, double work, StageCompletionHandler* handler)
      : target_(target), send_at_(send_at), work_(work), handler_(handler) {}

  void on_tick(Tick now) override {
    if (!sent_ && now >= send_at_) {
      target_->submit(now + 1, id(), /*seq=*/0, StageJob{work_, handler_, 99, 1});
      sent_ = true;
    }
  }
  Tick next_wake_tick(Tick next_now) const override { return sent_ ? kNeverTick : next_now; }

 private:
  Component* target_;
  Tick send_at_;
  double work_;
  StageCompletionHandler* handler_;
  bool sent_ = false;
};

TEST(FailureInjector, TrafficAfterFailoverWakesParkedBackupLink) {
  FailoverWorld world;
  ASSERT_EQ(world.loop->scheduler_mode(), SchedulerMode::kActiveSet);

  // The backup link EU->AFR has never carried a job: it is parked
  // (kNeverTick) from the first iteration. Fail the primary over to it,
  // then submit a transfer after the failover tick.
  FailureInjector injector(*world.topology);
  injector.schedule(FailureEvent::link_down(0.5, world.na, world.afr));
  injector.schedule(FailureEvent::link_up(0.5, world.eu, world.afr));
  injector.install(*world.loop);

  LinkComponent* backup = world.topology->link(world.eu, world.afr);
  ASSERT_NE(backup, nullptr);
  StageRecorder rec;
  OneShotSender sender(backup, world.loop->clock().to_ticks(0.7), 1000.0, &rec);
  sender.set_name("test/sender");
  world.loop->add_agent(&sender);

  world.loop->run_for_seconds(1.5);

  // The delivery must have woken the parked component and been served.
  ASSERT_EQ(rec.done.size(), 1u);
  EXPECT_EQ(rec.done[0].second, 99u);
  EXPECT_EQ(backup->queue_length(), 0u);
}

TEST(FailureInjector, ServerEventsOnParkedServerDoNotLoseLaterWork) {
  FailoverWorld world;
  Tier* app = world.topology->dc(world.na).tier(TierKind::App);

  // Server 0 crashes and recovers while completely idle (its components are
  // parked the whole time). Work submitted after recovery must be served.
  FailureInjector injector(*world.topology);
  injector.schedule(FailureEvent::server_down(0.2, world.na, TierKind::App, 0));
  injector.schedule(FailureEvent::server_up(0.4, world.na, TierKind::App, 0));
  injector.install(*world.loop);

  StageRecorder rec;
  OneShotSender sender(&app->server(0).cpu(), world.loop->clock().to_ticks(0.6), 1e6, &rec);
  sender.set_name("test/sender");
  world.loop->add_agent(&sender);

  world.loop->run_for_seconds(1.5);

  EXPECT_TRUE(app->server_alive(0));
  ASSERT_EQ(rec.done.size(), 1u);
  EXPECT_EQ(rec.done[0].second, 99u);
}

}  // namespace
}  // namespace gdisim
