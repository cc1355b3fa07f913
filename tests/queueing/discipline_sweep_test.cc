// Parameterized invariant sweeps over the queue disciplines: conservation,
// monotonicity and fairness properties that must hold for every
// configuration the hardware layer can instantiate.
#include <gtest/gtest.h>

#include <cmath>

#include "core/rng.h"
#include "queueing/fcfs_queue.h"
#include "queueing/ps_queue.h"

namespace gdisim {
namespace {

// ---------------------------------------------------------------------------
// FCFS sweep: (servers, rate, dt).

struct FcfsCase {
  unsigned servers;
  double rate;
  double dt;
};

/// Names the case in test listings as its initializer reads (gtest would
/// otherwise print the struct's bytes, padding included, which differ from
/// build to build).
void PrintTo(const FcfsCase& c, std::ostream* os) {
  *os << "{" << c.servers << ", " << c.rate << ", " << c.dt << "}";
}

class FcfsSweep : public ::testing::TestWithParam<FcfsCase> {};

TEST_P(FcfsSweep, ConservesWorkAndCompletesEverything) {
  const FcfsCase& p = GetParam();
  FcfsMultiServerQueue q(p.servers, p.rate);
  Rng rng(11);
  double total_in = 0.0;
  const int jobs = 50;
  for (int i = 0; i < jobs; ++i) {
    const double w = rng.next_exponential(p.rate * 0.05);
    q.enqueue(w, nullptr);
    total_in += w;
  }
  double served = 0.0;
  std::uint64_t done = 0;
  for (int step = 0; step < 200000 && done < jobs; ++step) {
    auto r = q.advance(p.dt);
    served += r.work_done;
    done += r.completed.size();
    // Utilization is a fraction by construction.
    EXPECT_GE(q.last_utilization(), 0.0);
    EXPECT_LE(q.last_utilization(), 1.0 + 1e-9);
  }
  EXPECT_EQ(done, static_cast<std::uint64_t>(jobs));
  EXPECT_NEAR(served, total_in, 1e-6 * total_in + 1e-9);
  EXPECT_EQ(q.total_jobs(), 0u);
}

TEST_P(FcfsSweep, BusySecondsNeverExceedElapsedTimesServers) {
  const FcfsCase& p = GetParam();
  FcfsMultiServerQueue q(p.servers, p.rate);
  for (int i = 0; i < 20; ++i) q.enqueue(p.rate * p.dt * 3.0, nullptr);
  for (int step = 0; step < 500; ++step) q.advance(p.dt);
  EXPECT_LE(q.busy_server_seconds(), q.elapsed_seconds() * p.servers + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, FcfsSweep,
    ::testing::Values(FcfsCase{1, 1.0, 0.01}, FcfsCase{1, 1e9, 0.05}, FcfsCase{4, 100.0, 0.001},
                      FcfsCase{8, 2.5e9, 0.05}, FcfsCase{16, 10.0, 0.1},
                      FcfsCase{3, 7.5, 0.02}),
    [](const ::testing::TestParamInfo<FcfsCase>& tpi) {
      return "c" + std::to_string(tpi.param.servers) + "_i" + std::to_string(tpi.index);
    });

// ---------------------------------------------------------------------------
// PS sweep: (k, latency).

struct PsCase {
  std::size_t k;
  double latency;
};

class PsSweep : public ::testing::TestWithParam<PsCase> {};

TEST_P(PsSweep, EqualJobsFinishTogetherAndFairly) {
  const PsCase& p = GetParam();
  PsQueue q(100.0, p.k, p.latency);
  const int jobs = 6;
  for (int i = 0; i < jobs; ++i) q.enqueue(50.0, nullptr);
  // All jobs identical: completion count jumps in batches of at most k.
  int done = 0;
  int batches = 0;
  for (int step = 0; step < 100000 && done < jobs; ++step) {
    auto r = q.advance(0.01);
    if (!r.completed.empty()) {
      ++batches;
      EXPECT_LE(r.completed.size(), p.k == 0 ? jobs : p.k);
      done += static_cast<int>(r.completed.size());
    }
  }
  EXPECT_EQ(done, jobs);
  if (p.k == 0) {
    EXPECT_EQ(batches, 1);  // unlimited sharing: all at once
  }
}

TEST_P(PsSweep, LatencyIsAdditive) {
  const PsCase& p = GetParam();
  // Completion time of a lone job = work/rate + latency.
  PsQueue q(100.0, p.k, p.latency);
  q.enqueue(100.0, nullptr);
  double t = 0.0;
  const double dt = 0.005;
  while (q.total_jobs() > 0 && t < 100.0) {
    q.advance(dt);
    t += dt;
  }
  EXPECT_NEAR(t, 1.0 + p.latency, 2 * dt);
}

INSTANTIATE_TEST_SUITE_P(Grid, PsSweep,
                         ::testing::Values(PsCase{0, 0.0}, PsCase{0, 0.25}, PsCase{2, 0.0},
                                           PsCase{2, 0.1}, PsCase{4, 0.5}, PsCase{1, 0.05}),
                         [](const ::testing::TestParamInfo<PsCase>& tpi) {
                           return "k" + std::to_string(tpi.param.k) + "_i" +
                                  std::to_string(tpi.index);
                         });

}  // namespace
}  // namespace gdisim
