#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/rng.h"
#include "core/sim_loop.h"
#include "hardware/cpu.h"
#include "hardware/delay.h"
#include "hardware/link.h"
#include "hardware/memory.h"
#include "hardware/nic.h"
#include "hardware/network_switch.h"
#include "hardware/raid.h"
#include "hardware/san.h"
#include "queueing/analytic.h"

namespace gdisim {
namespace {

/// Records completions (component, tick, tag).
class RecordingHandler final : public StageCompletionHandler {
 public:
  void on_stage_complete(Component& at, Tick now, std::uint64_t tag) override {
    completions.push_back({&at, now, tag});
  }
  struct Rec {
    Component* at;
    Tick now;
    std::uint64_t tag;
  };
  std::vector<Rec> completions;
};

/// Drives a single component through the tick/interaction protocol.
class ComponentHarness {
 public:
  explicit ComponentHarness(Component& c, double tick_seconds) : c_(c) {
    c_.set_tick_seconds(tick_seconds);
    c_.set_id(0);
  }
  void submit(double work, StageCompletionHandler* h, std::uint64_t tag = 0) {
    c_.submit(now_ + 1, 99, seq_++, StageJob{work, h, tag});
  }
  void step() {
    c_.on_tick(now_);
    c_.on_interactions(now_ + 1);
    ++now_;
  }
  void run(int n) {
    for (int i = 0; i < n; ++i) step();
  }
  Tick now() const { return now_; }

 private:
  Component& c_;
  Tick now_ = 0;
  std::uint64_t seq_ = 0;
};

TEST(CpuComponent, ConsumesCyclesAtClockRate) {
  CpuSpec spec{1, 1, 1e9, 1.0};  // one core at 1 GHz
  CpuComponent cpu(spec);
  RecordingHandler h;
  ComponentHarness harness(cpu, 0.01);
  harness.submit(5e6, &h);  // 5 Mcycles -> 5 ms -> done within one 10ms tick
  harness.step();           // job not yet absorbed (arrives via inbox)
  EXPECT_TRUE(h.completions.empty());
  harness.step();  // first service tick
  ASSERT_EQ(h.completions.size(), 1u);
}

TEST(CpuComponent, MulticoreParallelism) {
  CpuSpec spec{1, 4, 1e9, 1.0};
  CpuComponent cpu(spec);
  RecordingHandler h;
  ComponentHarness harness(cpu, 0.01);
  for (int i = 0; i < 4; ++i) harness.submit(1e7, &h, i);  // 10 ms each
  harness.run(3);
  EXPECT_EQ(h.completions.size(), 4u);  // all four served in parallel
}

TEST(CpuComponent, LeastLoadedSocketPlacement) {
  CpuSpec spec{2, 1, 1e9, 1.0};
  CpuComponent cpu(spec);
  RecordingHandler h;
  ComponentHarness harness(cpu, 0.01);
  harness.submit(1e7, &h, 0);
  harness.submit(1e7, &h, 1);
  harness.run(3);
  // Both finish in the same tick because they went to different sockets.
  ASSERT_EQ(h.completions.size(), 2u);
  EXPECT_EQ(h.completions[0].now, h.completions[1].now);
}

TEST(CpuComponent, UtilizationTracksLoad) {
  CpuSpec spec{1, 2, 1e9, 1.0};
  CpuComponent cpu(spec);
  RecordingHandler h;
  ComponentHarness harness(cpu, 0.01);
  harness.submit(1e7, &h);  // one of two cores busy for one tick
  harness.step();
  harness.step();
  EXPECT_NEAR(cpu.utilization(), 0.5, 1e-9);
}

TEST(CpuComponent, SmtInflatesEffectiveCores) {
  CpuSpec smt{1, 4, 2e9, 1.5};
  EXPECT_EQ(smt.effective_cores_per_socket(), 6u);
  CpuSpec no_smt{1, 4, 2e9, 1.0};
  EXPECT_EQ(no_smt.effective_cores_per_socket(), 4u);
}

TEST(NicComponent, ServesBitsAtLineRate) {
  NicComponent nic(NicSpec{1e9});
  RecordingHandler h;
  ComponentHarness harness(nic, 0.01);
  harness.submit(2e7, &h);  // 20 Mbit at 1 Gb/s -> 20 ms -> 2 ticks
  harness.run(4);
  ASSERT_EQ(h.completions.size(), 1u);
  EXPECT_EQ(h.completions[0].now, 2);
}

TEST(NicComponent, MeanSojournMatchesMm1Oracle) {
  // M/M/1: 1e9 b/s line, Poisson arrivals at lambda = 40/s, exponential
  // 1e7-bit messages (mu = 100/s) => E[T] = 1/(mu - lambda) = 16.67 ms.
  const double dt = 0.001, lambda = 40.0, mu = 100.0;
  const std::size_t jobs = 4000, warmup = 500;
  Rng arrivals(1234);
  Rng demands(5678);
  std::vector<Tick> arrive_tick(jobs);
  std::vector<double> work(jobs);
  double t = 0.0;
  for (std::size_t i = 0; i < jobs; ++i) {
    t += arrivals.next_exponential(1.0 / lambda);
    arrive_tick[i] = static_cast<Tick>(t / dt) + 1;
    work[i] = demands.next_exponential(1e7);
  }

  NicComponent nic(NicSpec{1e9});
  RecordingHandler h;
  ComponentHarness harness(nic, dt);
  std::size_t next = 0;
  while (h.completions.size() < jobs) {
    while (next < jobs && arrive_tick[next] == harness.now() + 1) {
      harness.submit(work[next], &h, next);
      ++next;
    }
    harness.step();
    ASSERT_LT(harness.now(), static_cast<Tick>(100000000)) << "station stopped serving";
  }

  double sum = 0.0;
  std::size_t counted = 0;
  for (const auto& r : h.completions) {
    if (r.tag < warmup) continue;
    sum += static_cast<double>(r.now - arrive_tick[r.tag]) * dt;
    ++counted;
  }
  const double oracle = analytic::mm1_mean_response_time(lambda, mu);
  EXPECT_NEAR(sum / static_cast<double>(counted), oracle, 0.15 * oracle);
}

TEST(SwitchComponent, FasterThanNic) {
  SwitchComponent sw(SwitchSpec{1e10});
  RecordingHandler h;
  ComponentHarness harness(sw, 0.01);
  harness.submit(2e7, &h);  // 2 ms at 10 Gb/s
  harness.run(3);
  ASSERT_EQ(h.completions.size(), 1u);
}

TEST(LinkComponent, AddsLatency) {
  LinkComponent link(LinkSpec{1e9, 0.05, 0, 1.0});
  RecordingHandler h;
  ComponentHarness harness(link, 0.01);
  harness.submit(1e7, &h);  // 10 ms transfer + 50 ms latency
  harness.run(5);
  EXPECT_TRUE(h.completions.empty());
  harness.run(3);
  EXPECT_EQ(h.completions.size(), 1u);
}

TEST(LinkComponent, AllocatedFractionLimitsCapacity) {
  LinkComponent link(LinkSpec{1e9, 0.0, 0, 0.2});
  EXPECT_DOUBLE_EQ(link.capacity_per_second(), 2e8);
  RecordingHandler h;
  ComponentHarness harness(link, 0.01);
  harness.submit(2e6, &h);  // 2 Mbit at 200 Mb/s -> 10 ms
  harness.run(3);
  EXPECT_EQ(h.completions.size(), 1u);
}

TEST(LinkComponent, SharedBandwidthSlowsTransfers) {
  LinkComponent link(LinkSpec{1e8, 0.0, 0, 1.0});
  RecordingHandler h;
  ComponentHarness harness(link, 0.01);
  harness.submit(1e6, &h, 0);
  harness.submit(1e6, &h, 1);
  // Each 1 Mb transfer alone: 10 ms; sharing: 20 ms.
  harness.run(2);
  EXPECT_TRUE(h.completions.empty());
  harness.run(2);
  EXPECT_EQ(h.completions.size(), 2u);
}

TEST(DelayComponent, PureDelayNoContention) {
  DelayComponent delay;
  RecordingHandler h;
  ComponentHarness harness(delay, 0.01);
  for (int i = 0; i < 100; ++i) harness.submit(0.03, &h, i);
  harness.run(2);
  EXPECT_TRUE(h.completions.empty());
  harness.run(3);
  EXPECT_EQ(h.completions.size(), 100u);  // all 100 complete together
}

TEST(MemoryComponent, OccupancyAllocateRelease) {
  MemoryComponent mem(MemorySpec{1e9, 0.5, 0.0});
  EXPECT_DOUBLE_EQ(mem.occupied_bytes(), 0.0);
  mem.allocate(1e6);
  mem.allocate(2e6);
  EXPECT_NEAR(mem.occupied_bytes(), 3e6, 1.0);
  EXPECT_NEAR(mem.utilization(), 3e-3, 1e-6);
  mem.release(1e6);
  EXPECT_NEAR(mem.occupied_bytes(), 2e6, 1.0);
}

TEST(MemoryComponent, CacheDecisionFromCallerUniform) {
  MemoryComponent mem(MemorySpec{1e9, 0.3, 0.0});
  EXPECT_TRUE(mem.storage_access_hits_cache(0.1));
  EXPECT_FALSE(mem.storage_access_hits_cache(0.5));
}

TEST(MemoryComponent, PoolFloorDominatesObservedBytes) {
  MemorySpec spec{32e9, 0.0, 28e9};
  MemoryComponent mem(spec);
  mem.allocate(1e6);
  EXPECT_DOUBLE_EQ(mem.observed_bytes(), 28e9);  // flat §5.3.3 profile
  EXPECT_NEAR(mem.occupied_bytes(), 1e6, 1.0);   // model profile
}

TEST(RaidComponent, ServesThroughControllerAndDisks) {
  RaidSpec spec;
  spec.disks = 4;
  spec.dacc_rate_Bps = 1e9;
  spec.dacc_hit_rate = 0.0;
  spec.dcc_rate_Bps = 1e9;
  spec.dcc_hit_rate = 0.0;
  spec.hdd_rate_Bps = 100e6;
  RaidComponent raid(spec, Rng(1));
  RecordingHandler h;
  ComponentHarness harness(raid, 0.01);
  harness.submit(4e6, &h);  // 1 MB/disk at 100 MB/s -> 10 ms + controller hops
  harness.run(8);
  ASSERT_EQ(h.completions.size(), 1u);
  EXPECT_EQ(raid.queue_length(), 0u);
}

TEST(RaidComponent, CacheHitBypassesDisks) {
  RaidSpec spec;
  spec.disks = 2;
  spec.dacc_rate_Bps = 1e9;
  spec.dacc_hit_rate = 1.0;  // always hit
  spec.hdd_rate_Bps = 1.0;   // disks effectively unusable
  RaidComponent raid(spec, Rng(1));
  RecordingHandler h;
  ComponentHarness harness(raid, 0.01);
  harness.submit(1e6, &h);
  harness.run(4);
  ASSERT_EQ(h.completions.size(), 1u);
}

TEST(SanComponent, FullPipelineCompletes) {
  SanSpec spec;
  spec.disks = 8;
  spec.dacc_hit_rate = 0.0;
  spec.dcc_hit_rate = 0.0;
  SanComponent san(spec, Rng(2));
  RecordingHandler h;
  ComponentHarness harness(san, 0.01);
  harness.submit(8e6, &h);
  harness.run(12);
  ASSERT_EQ(h.completions.size(), 1u);
  EXPECT_EQ(san.queue_length(), 0u);
}

TEST(SanComponent, HitRateOneNeverTouchesDisks) {
  SanSpec spec;
  spec.disks = 2;
  spec.dacc_hit_rate = 1.0;
  spec.hdd_rate_Bps = 1.0;
  SanComponent san(spec, Rng(3));
  RecordingHandler h;
  ComponentHarness harness(san, 0.01);
  for (int i = 0; i < 5; ++i) harness.submit(1e6, &h, i);
  harness.run(10);
  EXPECT_EQ(h.completions.size(), 5u);
}

// ---------------------------------------------------------------------------
// The disk array's n-way fork-join, on both pipelines that use it (RAID and
// SAN). Cache hits are off and the controller stages are fast enough to pass
// a job on in the tick it arrives, so the drives alone set the timing.

constexpr unsigned kDiskCounts[] = {1, 2, 4, 12, 40};

/// A RAID and a SAN striping over `disks` drives of `hdd_rate_Bps` each.
std::vector<std::unique_ptr<DiskArrayComponent>> striped_arrays(unsigned disks,
                                                                 double hdd_rate_Bps) {
  constexpr double kFast = 1e15;
  RaidSpec raid;
  raid.disks = disks;
  raid.dacc_rate_Bps = raid.dcc_rate_Bps = kFast;
  raid.hdd_rate_Bps = hdd_rate_Bps;
  SanSpec san;
  san.disks = disks;
  san.fcsw_rate_Bps = san.dacc_rate_Bps = san.fcal_rate_Bps = san.dcc_rate_Bps = kFast;
  san.hdd_rate_Bps = hdd_rate_Bps;
  std::vector<std::unique_ptr<DiskArrayComponent>> arrays;
  arrays.push_back(std::make_unique<RaidComponent>(raid, Rng(1)));
  arrays.push_back(std::make_unique<SanComponent>(san, Rng(2)));
  return arrays;
}

std::string array_label(std::size_t which, unsigned disks) {
  return std::string(which == 0 ? "raid" : "san") + " x" + std::to_string(disks);
}

/// Steps until `h` has seen `jobs` completions or `max_steps` have run.
void run_until_completed(ComponentHarness& harness, const RecordingHandler& h,
                         std::size_t jobs, int max_steps) {
  for (int i = 0; i < max_steps && h.completions.size() < jobs; ++i) harness.step();
}

class ForkJoinSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(ForkJoinSweep, LoneJobLatencyScalesInverselyWithBranches) {
  const unsigned disks = GetParam();
  const double dt = 0.001;
  auto arrays = striped_arrays(disks, 100.0);
  for (std::size_t k = 0; k < arrays.size(); ++k) {
    SCOPED_TRACE(array_label(k, disks));
    RecordingHandler h;
    ComponentHarness harness(*arrays[k], dt);
    harness.submit(400.0, &h);  // accepted at tick 1, served from tick 1 on
    run_until_completed(harness, h, 1, 10000);
    ASSERT_EQ(h.completions.size(), 1u);
    EXPECT_NEAR(static_cast<double>(h.completions[0].now) * dt, 4.0 / disks, 3 * dt);
  }
}

TEST_P(ForkJoinSweep, CompletionOrderIsFifoForUniformJobs) {
  const unsigned disks = GetParam();
  auto arrays = striped_arrays(disks, 100.0);
  for (std::size_t k = 0; k < arrays.size(); ++k) {
    SCOPED_TRACE(array_label(k, disks));
    RecordingHandler h;
    ComponentHarness harness(*arrays[k], 0.001);
    for (std::uint64_t tag = 1; tag <= 5; ++tag) harness.submit(100.0, &h, tag);
    run_until_completed(harness, h, 5, 100000);
    ASSERT_EQ(h.completions.size(), 5u);
    for (std::size_t i = 0; i < h.completions.size(); ++i) {
      EXPECT_EQ(h.completions[i].tag, i + 1);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Branches, ForkJoinSweep, ::testing::ValuesIn(kDiskCounts),
                         [](const ::testing::TestParamInfo<unsigned>& tpi) {
                           return "n" + std::to_string(tpi.param);
                         });

TEST(ForkJoin, CompletesWhenAllBranchesDone) {
  // One 100-byte share per disk at 100 B/s: every share needs 100 ticks of
  // 10 ms. A join that fired on the first finished share would report the
  // job once per disk.
  for (unsigned disks : kDiskCounts) {
    auto arrays = striped_arrays(disks, 100.0);
    for (std::size_t k = 0; k < arrays.size(); ++k) {
      SCOPED_TRACE(array_label(k, disks));
      RecordingHandler h;
      ComponentHarness harness(*arrays[k], 0.01);
      harness.submit(100.0 * disks, &h, 7);
      harness.run(50);
      EXPECT_TRUE(h.completions.empty());
      EXPECT_EQ(arrays[k]->queue_length(), 1u);
      harness.run(70);
      ASSERT_EQ(h.completions.size(), 1u);
      EXPECT_EQ(h.completions[0].tag, 7u);
      EXPECT_NEAR(static_cast<double>(h.completions[0].now), 100.0, 1.0);
      EXPECT_EQ(arrays[k]->queue_length(), 0u);
    }
  }
}

TEST(ForkJoin, StripingSpeedsUpSingleJob) {
  // The same 4000 bytes finish strictly sooner on every wider array.
  for (std::size_t k = 0; k < 2; ++k) {
    Tick previous = kNeverTick;
    for (unsigned disks : kDiskCounts) {
      SCOPED_TRACE(array_label(k, disks));
      auto arrays = striped_arrays(disks, 100.0);
      RecordingHandler h;
      ComponentHarness harness(*arrays[k], 0.01);
      harness.submit(4000.0, &h);
      run_until_completed(harness, h, 1, 10000);
      ASSERT_EQ(h.completions.size(), 1u);
      EXPECT_LT(h.completions[0].now, previous);
      previous = h.completions[0].now;
    }
  }
}

TEST(ForkJoin, MultipleJobsQueuePerBranch) {
  // The second job's shares wait behind the first's on every disk, so it
  // completes one share time (100 ticks) after the first.
  for (unsigned disks : kDiskCounts) {
    auto arrays = striped_arrays(disks, 100.0);
    for (std::size_t k = 0; k < arrays.size(); ++k) {
      SCOPED_TRACE(array_label(k, disks));
      RecordingHandler h;
      ComponentHarness harness(*arrays[k], 0.01);
      harness.submit(100.0 * disks, &h, 1);
      harness.submit(100.0 * disks, &h, 2);
      harness.run(2);
      EXPECT_EQ(arrays[k]->queue_length(), 2u);
      run_until_completed(harness, h, 2, 1000);
      ASSERT_EQ(h.completions.size(), 2u);
      EXPECT_EQ(h.completions[0].tag, 1u);
      EXPECT_EQ(h.completions[1].tag, 2u);
      EXPECT_NEAR(static_cast<double>(h.completions[1].now - h.completions[0].now), 100.0,
                  1.0);
    }
  }
}

TEST(ForkJoin, UtilizationAveragesBranches) {
  // 50 bytes per disk over one 1 s tick at 100 B/s: every drive is half
  // busy. The controllers, nearly idle, do not enter the figure.
  for (unsigned disks : kDiskCounts) {
    auto arrays = striped_arrays(disks, 100.0);
    for (std::size_t k = 0; k < arrays.size(); ++k) {
      SCOPED_TRACE(array_label(k, disks));
      RecordingHandler h;
      ComponentHarness harness(*arrays[k], 1.0);
      harness.submit(50.0 * disks, &h);
      harness.run(2);  // accept, then one service tick
      EXPECT_NEAR(arrays[k]->utilization(), 0.5, 1e-9);
      EXPECT_EQ(h.completions.size(), 1u);
    }
  }
}

TEST(ForkJoin, RejectsZeroBranches) {
  RaidSpec raid;
  raid.disks = 0;
  EXPECT_THROW(RaidComponent(raid, Rng(1)), std::invalid_argument);
  SanSpec san;
  san.disks = 0;
  EXPECT_THROW(SanComponent(san, Rng(1)), std::invalid_argument);
}

TEST(ForkJoin, DestructorReleasesInFlightJobs) {
  // Destroying an array with jobs in flight — shares on the drives and
  // shares still waiting behind them — must leak nothing (checked by the
  // ASan build).
  for (unsigned disks : kDiskCounts) {
    auto arrays = striped_arrays(disks, 100.0);
    for (std::size_t k = 0; k < arrays.size(); ++k) {
      SCOPED_TRACE(array_label(k, disks));
      RecordingHandler h;
      ComponentHarness harness(*arrays[k], 0.01);
      for (int i = 0; i < 3; ++i) harness.submit(1e6, &h);
      harness.run(3);
      EXPECT_EQ(arrays[k]->queue_length(), 3u);
      arrays[k].reset();
      EXPECT_TRUE(h.completions.empty());
    }
  }
}

TEST(CpuComponent, ParallelJobForksAcrossCores) {
  // 4 cores at 1 GHz; a 4e7-cycle job takes 40 ms serial but 10 ms at
  // parallelism 4 (thesis §9.1.1).
  CpuSpec spec{1, 4, 1e9, 1.0};
  CpuComponent serial_cpu(spec), parallel_cpu(spec);
  RecordingHandler hs, hp;
  ComponentHarness serial(serial_cpu, 0.01), parallel(parallel_cpu, 0.01);
  serial.submit(4e7, &hs);
  parallel.submit(4e7, &hp);
  // Give the parallel job its fork hint.
  parallel_cpu.set_tick_seconds(0.01);
  // Re-submit with parallelism via the raw submit API.
  CpuComponent cpu2(spec);
  cpu2.set_tick_seconds(0.01);
  cpu2.set_id(1);
  RecordingHandler h2;
  cpu2.submit(1, 99, 0, StageJob{4e7, &h2, 0, 4});
  for (Tick t = 0; t < 3; ++t) {
    cpu2.on_tick(t);
    cpu2.on_interactions(t + 1);
  }
  ASSERT_EQ(h2.completions.size(), 1u);  // done within ~1 service tick
  serial.run(6);
  ASSERT_EQ(hs.completions.size(), 1u);
  EXPECT_GT(hs.completions[0].now, h2.completions[0].now);
}

TEST(CpuComponent, ParallelismCappedAtSocketCores) {
  CpuSpec spec{1, 2, 1e9, 1.0};
  CpuComponent cpu(spec);
  cpu.set_tick_seconds(0.01);
  cpu.set_id(1);
  RecordingHandler h;
  // parallelism 16 capped to the 2 cores of the socket: 2e7 cycles split
  // into two 1e7 shares => done after one 10 ms service tick.
  cpu.submit(1, 99, 0, StageJob{2e7, &h, 0, 16});
  for (Tick t = 0; t < 4; ++t) {
    cpu.on_tick(t);
    cpu.on_interactions(t + 1);
  }
  EXPECT_EQ(h.completions.size(), 1u);
}

TEST(CpuComponent, ParallelJobConsumesSameTotalCycles) {
  CpuSpec spec{1, 4, 1e9, 1.0};
  CpuComponent cpu(spec);
  cpu.set_tick_seconds(0.01);
  cpu.set_id(1);
  RecordingHandler h;
  cpu.submit(1, 99, 0, StageJob{4e7, &h, 0, 4});
  cpu.on_tick(0);
  cpu.on_interactions(1);
  cpu.on_tick(1);  // all four cores busy the whole tick
  EXPECT_NEAR(cpu.utilization(), 1.0, 1e-9);
  cpu.on_interactions(2);
  cpu.on_tick(2);
  EXPECT_EQ(h.completions.size(), 1u);
}

TEST(Component, InstantAccountingRaisesUtilization) {
  NicComponent nic(NicSpec{1e9});
  nic.set_tick_seconds(0.01);
  nic.account_instant(5e6, 0);  // 5 Mb of sub-tick work accounted at tick 0
  nic.on_tick(0);
  EXPECT_NEAR(nic.utilization(), 0.0, 1e-9);  // folds at the tick after accounting
  nic.on_tick(1);
  EXPECT_NEAR(nic.utilization(), 0.5, 1e-9);  // 5e6 / (1e9 * 0.01)
  nic.on_tick(2);
  EXPECT_NEAR(nic.utilization(), 0.0, 1e-9);  // accounted once only
}

TEST(Component, PendingIdleSamplesFoldOldestFirst) {
  // `lazy` stops running after tick 1, the way a parked station does; `twin`
  // runs every tick, the way the dense sweep drives it. The three samples
  // (0.1, 0.2, 0.6 of a tick) sum to 0.9 in tick order but to
  // 0.8999999999999999 with the last two swapped.
  NicComponent lazy(NicSpec{1e9});
  NicComponent twin(NicSpec{1e9});
  for (NicComponent* c : {&lazy, &twin}) {
    c->set_tick_seconds(0.01);
    c->account_instant(1e6, 0);
    c->on_tick(0);
    c->on_tick(1);
    c->account_instant(2e6, 1);
    c->account_instant(6e6, 2);
  }
  EXPECT_TRUE(lazy.instant_pending());  // samples of ticks 2 and 3
  twin.on_tick(2);
  twin.on_tick(3);
  const double want = twin.take_window_utilization(4);
  EXPECT_EQ(want, 0.9 / 4.0);
  EXPECT_EQ(lazy.take_window_utilization(4), want);
  EXPECT_FALSE(lazy.instant_pending());
}

/// Stands in for the route builder: accounts sub-tick work on a station at
/// the ticks `instant` names and submits one queued job at `job_tick`.
class InstantFeeder final : public Agent {
 public:
  InstantFeeder(Component& target, std::vector<std::pair<Tick, double>> instant, Tick job_tick,
                double job_work, StageCompletionHandler* handler)
      : target_(target),
        instant_(std::move(instant)),
        job_tick_(job_tick),
        job_work_(job_work),
        handler_(handler) {}

  void on_tick(Tick now) override {
    for (const auto& [at, work] : instant_) {
      if (at == now) target_.account_instant(work, now);
    }
    if (now == job_tick_) target_.submit(now + 1, id(), /*seq=*/0, StageJob{job_work_, handler_});
  }

 private:
  Component& target_;
  std::vector<std::pair<Tick, double>> instant_;
  Tick job_tick_;
  double job_work_;
  StageCompletionHandler* handler_;
};

struct FedNic {
  double window = 0.0;
  std::uint64_t nic_runs = 0;
};

/// Runs a 1 Gb/s NIC and an InstantFeeder for `ticks` ticks of 10 ms under
/// `mode`; returns the NIC's utilization window and how often it ran.
FedNic run_fed_nic(SchedulerMode mode, Tick ticks, std::vector<std::pair<Tick, double>> instant,
                   Tick job_tick = -1, double job_work = 0.0) {
  SimLoopConfig cfg;
  cfg.tick_seconds = 0.01;
  cfg.scheduler = mode;
  SimulationLoop loop(cfg);
  NicComponent nic(NicSpec{1e9});
  nic.set_tick_seconds(cfg.tick_seconds);
  RecordingHandler h;
  InstantFeeder feeder(nic, std::move(instant), job_tick, job_work, &h);
  const AgentId nic_id = loop.add_agent(&nic);
  loop.add_agent(&feeder);
  loop.run_until(ticks);
  return {nic.take_window_utilization(loop.now()), loop.scheduler_stats().per_agent_runs[nic_id]};
}

TEST(Component, InstantWorkBesideAQueuedJobFoldsWithTheBusyUtilization) {
  // At tick 5 the feeder queues a 1.5-tick job and accounts 0.3 of a tick of
  // sub-tick work; both land in tick 6. The station runs that tick with the
  // job, so the sample joins the busy utilization: min(1, 1.0 + 0.3), then
  // 0.5 in tick 7. Folding it apart as an idle sample would give 1.8.
  const std::vector<std::pair<Tick, double>> instant = {{5, 3e6}};
  const FedNic dense = run_fed_nic(SchedulerMode::kDenseSweep, 10, instant, 5, 1.5e7);
  const FedNic active = run_fed_nic(SchedulerMode::kActiveSet, 10, instant, 5, 1.5e7);
  EXPECT_DOUBLE_EQ(dense.window, 1.5 / 10.0);
  EXPECT_EQ(active.window, dense.window);
  EXPECT_LT(active.nic_runs, dense.nic_runs);
}

TEST(Component, NicFedOnlyInstantWorkStaysParked) {
  // Sub-tick work every tick never wakes the station: after the warm-up
  // iteration every registered agent runs, it stays out of the active set,
  // and its window still matches the dense sweep bit for bit.
  std::vector<std::pair<Tick, double>> instant;
  for (Tick t = 0; t < 100; ++t) instant.emplace_back(t, 1e5 * static_cast<double>(1 + t % 7));
  const FedNic dense = run_fed_nic(SchedulerMode::kDenseSweep, 100, instant);
  const FedNic active = run_fed_nic(SchedulerMode::kActiveSet, 100, instant);
  EXPECT_GT(dense.window, 0.0);
  EXPECT_EQ(active.window, dense.window);
  EXPECT_EQ(dense.nic_runs, 100u);
  EXPECT_EQ(active.nic_runs, 1u);
}

}  // namespace
}  // namespace gdisim
