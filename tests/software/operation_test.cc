// End-to-end operation instance tests on a two-data-center micro world.
#include "software/operation.h"

#include <gtest/gtest.h>

#include "config/builder.h"
#include "core/sim_loop.h"

namespace gdisim {
namespace {

constexpr double kTick = 0.01;

struct MicroWorld {
  std::unique_ptr<Topology> topology;
  std::unique_ptr<OperationContext> ctx;
  std::unique_ptr<SimulationLoop> loop;
  DcId na = 0, eu = 0;

  MicroWorld() {
    InfrastructureBuilder builder(7);
    DataCenterBlueprint na_bp;
    na_bp.name = "NA";
    na_bp.tiers[TierKind::App] = TierNotation{2, 2, 32.0};
    na_bp.tiers[TierKind::Db] = TierNotation{1, 2, 32.0};
    na_bp.tiers[TierKind::Fs] = TierNotation{1, 2, 16.0};
    na_bp.tiers[TierKind::Idx] = TierNotation{1, 2, 16.0};
    na_bp.san = SanNotation{1, 8, 15000.0};
    builder.add_datacenter(na_bp);
    DataCenterBlueprint eu_bp;
    eu_bp.name = "EU";
    eu_bp.tiers[TierKind::Fs] = TierNotation{1, 2, 16.0};
    eu_bp.san = SanNotation{1, 8, 15000.0};
    builder.add_datacenter(eu_bp);
    builder.connect_duplex("NA", "EU", LinkNotation{0.155, 50.0, 0.2});
    topology = builder.finish();
    na = topology->find_dc("NA");
    eu = topology->find_dc("EU");
    ctx = std::make_unique<OperationContext>(*topology, na);
    loop = std::make_unique<SimulationLoop>(SimLoopConfig{kTick, 0});
    topology->register_with(*loop);
  }
};

struct LaunchResult {
  bool done = false;
  Tick end_tick = 0;
};

/// Runs one instance to completion; returns end tick.
LaunchResult run_instance(MicroWorld& world, const CascadeSpec& spec, LaunchParams params,
                          Tick max_ticks = 200000) {
  LaunchResult result;
  OperationInstance instance(spec, *world.ctx, params,
                             [&result](OperationInstance&, Tick end) {
                               result.done = true;
                               result.end_tick = end;
                             });
  instance.start(world.loop->now());
  while (!result.done && world.loop->now() < max_ticks) world.loop->step();
  return result;
}

LaunchParams params_at(DcId origin, std::uint64_t serial = 0) {
  LaunchParams p;
  p.origin_dc = origin;
  p.owner_dc = kInvalidDc;
  p.size_mb = 10.0;
  p.instance_serial = serial;
  p.launcher_id = 4000;
  p.rng_seed = 77 + serial;
  return p;
}

TEST(OperationInstance, SimpleRoundTripCompletes) {
  MicroWorld world;
  CascadeSpec spec = CascadeBuilder("rt")
                         .step()
                         .msg(Endpoint::client(), Endpoint::app_owner(),
                              {0.1 * 2.5e9, 30 * KB, 5 * MB, 0})
                         .msg(Endpoint::app_owner(), Endpoint::client(),
                              {0.05 * 2.4e9, 250 * KB, 0, 0})
                         .build();
  auto r = run_instance(world, spec, params_at(world.na));
  ASSERT_TRUE(r.done);
  // Roughly 0.1 s server cpu + 0.05 s client + hop ticks.
  const double dur = r.end_tick * kTick;
  EXPECT_GT(dur, 0.14);
  EXPECT_LT(dur, 0.40);
}

TEST(OperationInstance, RepeatedStepScalesDuration) {
  MicroWorld world;
  auto make = [](unsigned repeat) {
    return CascadeBuilder("rep")
        .step(repeat)
        .msg(Endpoint::client(), Endpoint::app_owner(), {0.1 * 2.5e9, 30 * KB, 0, 0})
        .msg(Endpoint::app_owner(), Endpoint::client(), {0.05 * 2.4e9, 100 * KB, 0, 0})
        .build();
  };
  auto r1 = run_instance(world, make(1), params_at(world.na, 1));
  MicroWorld world2;
  auto r4 = run_instance(world2, make(4), params_at(world2.na, 2));
  ASSERT_TRUE(r1.done);
  ASSERT_TRUE(r4.done);
  EXPECT_NEAR(static_cast<double>(r4.end_tick), 4.0 * r1.end_tick, 0.3 * r4.end_tick);
}

TEST(OperationInstance, WanLatencyInflatesRemoteOperations) {
  // The same round trip launched from EU must take >= 2 x 50 ms longer
  // (app tier only exists in NA).
  MicroWorld world;
  CascadeSpec spec = CascadeBuilder("rt")
                         .step()
                         .msg(Endpoint::client(), Endpoint::app_owner(),
                              {0.05 * 2.5e9, 30 * KB, 0, 0})
                         .msg(Endpoint::app_owner(), Endpoint::client(),
                              {0.02 * 2.4e9, 100 * KB, 0, 0})
                         .build();
  auto local = run_instance(world, spec, params_at(world.na, 3));
  MicroWorld world2;
  auto remote = run_instance(world2, spec, params_at(world2.eu, 4));
  ASSERT_TRUE(local.done);
  ASSERT_TRUE(remote.done);
  const double delta = (remote.end_tick - local.end_tick) * kTick;
  EXPECT_GT(delta, 0.09);  // 2 x 50 ms latency minus tick granularity
}

TEST(OperationInstance, SlaveTierFallsBackToMaster) {
  // EU has no app tier; resolution must land on an NA app server without
  // throwing and the route must traverse the WAN link.
  MicroWorld world;
  LinkComponent* eu_to_na = world.topology->link(world.eu, world.na);
  ASSERT_NE(eu_to_na, nullptr);
  CascadeSpec spec =
      CascadeBuilder("req")
          .step()
          .msg(Endpoint::client(), Endpoint::app_owner(), {0.05 * 2.5e9, 5 * MB, 0, 0})
          .build();
  auto r = run_instance(world, spec, params_at(world.eu, 5));
  ASSERT_TRUE(r.done);
  EXPECT_GT(eu_to_na->completed_transfers(), 0u);
}

TEST(OperationInstance, ParallelBranchesJoin) {
  MicroWorld world;
  // Two parallel branches with very different service demands; the
  // operation completes only when the slow one does.
  CascadeBuilder b("fork");
  b.step();
  b.msg(Endpoint::client(), Endpoint::app_owner(), {0.02 * 2.5e9, 30 * KB, 0, 0});
  b.branch();
  b.msg(Endpoint::client(), Endpoint::app_owner(), {0.5 * 2.5e9, 30 * KB, 0, 0});
  CascadeSpec spec = b.build();
  auto r = run_instance(world, spec, params_at(world.na, 6));
  ASSERT_TRUE(r.done);
  EXPECT_GT(r.end_tick * kTick, 0.48);
}

TEST(OperationInstance, PerMbCostsScaleWithLaunchSize) {
  MicroWorld world;
  CascadeSpec spec = CascadeBuilder("dl")
                         .step()
                         .msg(Endpoint::fs_local(), Endpoint::client(), {0, 16 * KB, 0, 0})
                         .spec_last_per_mb({0.1 * 2.4e9, 0, 0, 0})
                         .build();
  LaunchParams small = params_at(world.na, 7);
  small.size_mb = 1.0;
  auto r_small = run_instance(world, spec, small);
  MicroWorld world2;
  LaunchParams big = params_at(world2.na, 8);
  big.size_mb = 20.0;
  auto r_big = run_instance(world2, spec, big);
  ASSERT_TRUE(r_small.done);
  ASSERT_TRUE(r_big.done);
  // 0.1 s/MB of client work: 1 MB -> ~0.1 s, 20 MB -> ~2 s.
  EXPECT_GT((r_big.end_tick - r_small.end_tick) * kTick, 1.5);
}

TEST(OperationInstance, SizeOverrideBeatsLaunchSize) {
  MicroWorld world;
  CascadeSpec spec = CascadeBuilder("dl")
                         .step()
                         .msg(Endpoint::fs_local(), Endpoint::client(), {0, 16 * KB, 0, 0})
                         .spec_last_per_mb({0.1 * 2.4e9, 0, 0, 0})
                         .build();
  spec.steps[0].branches[0].messages[0].size_mb_override = 20.0;
  LaunchParams p = params_at(world.na, 9);
  p.size_mb = 1.0;  // should be ignored
  auto r = run_instance(world, spec, p);
  ASSERT_TRUE(r.done);
  EXPECT_GT(r.end_tick * kTick, 1.8);
}

TEST(OperationInstance, MemoryOccupancyReleasedAtEnd) {
  MicroWorld world;
  CascadeSpec spec = CascadeBuilder("mem")
                         .step()
                         .msg(Endpoint::client(), Endpoint::app_owner(),
                              {0.2 * 2.5e9, 30 * KB, 64 * MB, 0})
                         .build();
  auto total_app_mem = [&world]() {
    return world.topology->dc(world.na).tier(TierKind::App)->total_memory_occupied();
  };
  LaunchResult result;
  OperationInstance instance(spec, *world.ctx, params_at(world.na, 10),
                             [&result](OperationInstance&, Tick end) {
                               result.done = true;
                               result.end_tick = end;
                             });
  instance.start(world.loop->now());
  world.loop->step();
  world.loop->step();
  world.loop->step();
  EXPECT_GT(total_app_mem(), 60.0 * MB);  // held while processing
  while (!result.done && world.loop->now() < 10000) world.loop->step();
  ASSERT_TRUE(result.done);
  EXPECT_NEAR(total_app_mem(), 0.0, 1.0);  // released at completion
}

TEST(OperationInstance, EmptyCascadeRejected) {
  MicroWorld world;
  CascadeSpec empty;
  empty.name = "empty";
  EXPECT_THROW(OperationInstance(empty, *world.ctx, params_at(world.na), nullptr),
               std::invalid_argument);
}

TEST(OperationContext, ResolveSelectors) {
  MicroWorld world;
  OperationContext& ctx = *world.ctx;
  EXPECT_EQ(ctx.resolve_dc(Endpoint::client(), world.eu, kInvalidDc), world.eu);
  EXPECT_EQ(ctx.resolve_dc(Endpoint::app_owner(), world.eu, kInvalidDc), world.na);
  EXPECT_EQ(ctx.resolve_dc(Endpoint::app_owner(), world.eu, world.eu), world.eu);
  EXPECT_EQ(ctx.resolve_dc(Endpoint::at(Role::FileServer, world.eu), world.na, kInvalidDc),
            world.eu);
}

TEST(OperationContext, ResolveServerFallsBackWhenTierMissing) {
  MicroWorld world;
  auto resolved = world.ctx->resolve(Endpoint::app_owner(), world.eu, world.eu, 0);
  // Owner says EU but EU has no app tier -> master NA.
  EXPECT_EQ(resolved.dc, world.na);
  ASSERT_NE(resolved.server, nullptr);
}

}  // namespace
}  // namespace gdisim
