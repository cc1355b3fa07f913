// In-flight operation table: launches from inside a drain, instance reuse
// across per-launch specs, and the snapshot codec with completions pending.
#include "software/in_flight.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "config/builder.h"
#include "core/sim_loop.h"
#include "hardware/component.h"

namespace gdisim {
namespace {

constexpr double kTick = 0.01;

/// One data center with a four-server app tier: the server a branch lands
/// on depends on its RNG stream, so a wrong stream shows in the timing.
struct World {
  std::unique_ptr<Topology> topology;
  std::unique_ptr<OperationContext> ctx;
  std::unique_ptr<SimulationLoop> loop;

  World() {
    InfrastructureBuilder builder(7);
    DataCenterBlueprint bp;
    bp.name = "NA";
    bp.tiers[TierKind::App] = TierNotation{4, 1, 32.0};
    bp.tiers[TierKind::Db] = TierNotation{1, 2, 32.0};
    bp.tiers[TierKind::Fs] = TierNotation{1, 2, 16.0};
    bp.tiers[TierKind::Idx] = TierNotation{1, 2, 16.0};
    bp.san = SanNotation{1, 8, 15000.0};
    builder.add_datacenter(bp);
    topology = builder.finish();
    ctx = std::make_unique<OperationContext>(*topology, 0);
    loop = std::make_unique<SimulationLoop>(SimLoopConfig{kTick, 0});
    topology->register_with(*loop);
  }

  /// Steps until `done()` holds; false if it never does.
  template <typename Pred>
  bool run_until(Pred done, int max_steps = 100000) {
    for (int i = 0; i < max_steps && !done(); ++i) loop->step();
    return done();
  }

  /// Every station's utilization window up to `now`: which servers the
  /// branches landed on.
  std::vector<double> windows(Tick now) {
    std::vector<double> out;
    for (Component* c : topology->all_components()) out.push_back(c->take_window_utilization(now));
    return out;
  }

  /// A handler registry that resolves this world's agents.
  HandlerRegistry registry() {
    HandlerRegistry reg;
    SimulationLoop* l = loop.get();
    reg.set_agent_resolver([l](AgentId id) { return l->agent(id); });
    return reg;
  }
};

/// An operation of `branches` parallel client -> app requests; `cpu_s` of
/// CPU time each.
std::unique_ptr<CascadeSpec> fan_out(const std::string& name, unsigned branches, double cpu_s) {
  CascadeBuilder b(name);
  b.step();
  for (unsigned i = 0; i < branches; ++i) {
    if (i > 0) b.branch();
    b.msg(Endpoint::client(), Endpoint::app_owner(), {cpu_s * 2.5e9, 30 * KB, 0, 0});
  }
  return std::make_unique<CascadeSpec>(b.build());
}

/// A launcher agent whose table the test drains by hand.
template <typename Extra>
struct Launcher final : Agent {
  InFlightOperations<Extra> ops;
  explicit Launcher(OperationContext& ctx, std::uint64_t seed_base = 99)
      : ops(*this, ctx, seed_base, /*catalog=*/nullptr) {}
  void on_tick(Tick /*now*/) override {}
};

LaunchParams at_origin() {
  LaunchParams p;
  p.origin_dc = 0;
  return p;
}

TEST(InFlightOperations, LaunchesFromInsideTheDrain) {
  // Every completion of generation g < 3 launches two operations of
  // generation g + 1 from the drain callback, so the table grows while it
  // drains.
  World w;
  Launcher<int> launcher(*w.ctx);
  w.loop->add_agent(&launcher);
  launcher.ops.launch(fan_out("op", 1, 0.05), at_origin(), 0, w.loop->now());

  std::vector<int> drained(4, 0);
  std::vector<std::uint64_t> serials;
  const bool idle = w.run_until([&] {
    launcher.ops.drain(w.loop->now(), [&](const OperationInstance& inst, int gen, Tick) {
      ++drained.at(static_cast<std::size_t>(gen));
      serials.push_back(inst.params().instance_serial);
      for (int k = 0; gen < 3 && k < 2; ++k) {
        launcher.ops.launch(fan_out("op", 1, 0.05), at_origin(), gen + 1, w.loop->now());
      }
    });
    return launcher.ops.size() == 0;
  });
  ASSERT_TRUE(idle);
  EXPECT_EQ(drained, (std::vector<int>{1, 2, 4, 8}));
  EXPECT_EQ(launcher.ops.launched(), 15u);
  std::sort(serials.begin(), serials.end());
  for (std::size_t i = 0; i < serials.size(); ++i) EXPECT_EQ(serials[i], i);
}

TEST(InFlightOperations, ReusedInstanceRunsTheNextSpecLikeAFreshOne) {
  // One entry runs a one-branch spec, then a six-branch spec built after
  // the first completed. The entry's instance is reused; its branch caches
  // must follow the new spec, so the run matches a fresh instance with the
  // same launch parameters in an identical world: same end tick, and the
  // branches' RNG streams put the same load on the same stations.
  World x;
  Launcher<int> launcher(*x.ctx);
  x.loop->add_agent(&launcher);
  std::vector<std::tuple<const OperationInstance*, LaunchParams, Tick>> done;
  const auto drain = [&] {
    launcher.ops.drain(x.loop->now(), [&](const OperationInstance& inst, int, Tick end) {
      done.emplace_back(&inst, inst.params(), end);
    });
    return !done.empty();
  };
  launcher.ops.launch(fan_out("one", 1, 0.3), at_origin(), 0, x.loop->now());
  ASSERT_TRUE(x.run_until(drain));
  const auto [first, first_params, first_end] = done.front();
  const Tick second_start = x.loop->now();
  launcher.ops.launch(fan_out("six", 6, 0.3), at_origin(), 1, second_start);
  done.clear();
  ASSERT_TRUE(x.run_until(drain));
  ASSERT_EQ(done.size(), 1u);
  const auto [second, params, end] = done.front();
  EXPECT_EQ(second, first);  // the instance was reused
  EXPECT_EQ(params.instance_serial, 1u);

  World y;
  Launcher<int> twin(*y.ctx);
  y.loop->add_agent(&twin);
  const auto one = fan_out("one", 1, 0.3);
  Tick twin_first_end = -1;
  OperationInstance twin_first(*one, *y.ctx, first_params,
                               [&](OperationInstance&, Tick t) { twin_first_end = t; });
  twin_first.start(y.loop->now());
  ASSERT_TRUE(y.run_until([&] { return y.loop->now() == second_start; }));
  EXPECT_EQ(twin_first_end, first_end);

  const auto six = fan_out("six", 6, 0.3);
  Tick fresh_end = -1;
  OperationInstance fresh(*six, *y.ctx, params, [&](OperationInstance&, Tick t) { fresh_end = t; });
  fresh.start(y.loop->now());
  ASSERT_TRUE(y.run_until([&] { return fresh_end >= 0; }));
  EXPECT_EQ(end, fresh_end);
  ASSERT_TRUE(x.run_until([&] { return x.loop->now() >= y.loop->now(); }));
  ASSERT_TRUE(y.run_until([&] { return y.loop->now() >= x.loop->now(); }));
  EXPECT_EQ(x.windows(x.loop->now()), y.windows(y.loop->now()));
}

TEST(InFlightOperations, SnapshotRoundTripWithCompletionsPending) {
  // Three runs of different lengths: at the snapshot the short one has a
  // completion waiting in the inbox and the others are still live. A fresh
  // table restores it, re-saves the same bytes and drains the same
  // completions with the same records.
  World x;
  Launcher<std::string> a(*x.ctx);
  x.loop->add_agent(&a);
  a.ops.launch(fan_out("long", 2, 2.0), at_origin(), "long", x.loop->now());
  a.ops.launch(fan_out("short", 1, 0.1), at_origin(), "short", x.loop->now());
  a.ops.launch(fan_out("mid", 3, 1.0), at_origin(), "mid", x.loop->now());
  ASSERT_TRUE(x.run_until([&] { return a.ops.completions_pending(); }));
  ASSERT_EQ(a.ops.size(), 3u);

  HandlerRegistry reg_a = x.registry();
  StateArchive w(StateArchive::Mode::kWrite);
  a.ops.archive_state(w, reg_a, [](StateArchive& ar, std::string& s) { ar.str(s); });

  World y;
  Launcher<std::string> b(*y.ctx);
  y.loop->add_agent(&b);
  HandlerRegistry reg_b = y.registry();
  StateArchive r = StateArchive::reader(w.payload());
  b.ops.archive_state(r, reg_b, [](StateArchive& ar, std::string& s) { ar.str(s); });
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(b.ops.size(), 3u);
  EXPECT_EQ(b.ops.launched(), 3u);
  EXPECT_TRUE(b.ops.completions_pending());

  HandlerRegistry reg_b2 = y.registry();
  StateArchive w2(StateArchive::Mode::kWrite);
  b.ops.archive_state(w2, reg_b2, [](StateArchive& ar, std::string& s) { ar.str(s); });
  EXPECT_EQ(w.payload(), w2.payload());

  // Every pending completion is visible by the next tick.
  using Done = std::tuple<std::uint64_t, std::string, Tick>;
  const auto drain = [&x](Launcher<std::string>& l) {
    std::vector<Done> out;
    l.ops.drain(x.loop->now() + 1, [&out](const OperationInstance& inst, std::string s, Tick end) {
      out.emplace_back(inst.params().instance_serial, std::move(s), end);
    });
    return out;
  };
  const std::vector<Done> want = drain(a);
  ASSERT_EQ(want.size(), 1u);
  EXPECT_EQ(std::get<1>(want.front()), "short");
  EXPECT_EQ(drain(b), want);
  EXPECT_EQ(b.ops.size(), 2u);
}

}  // namespace
}  // namespace gdisim
