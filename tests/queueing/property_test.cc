// Property tests: the discrete-time queues must converge to the closed-form
// M/M/c predictions under Poisson arrivals and exponential service demands.
// This is the simulation-vs-analytic-model comparison of thesis Ch. 2,
// turned into an executable invariant.
#include <gtest/gtest.h>

#include <cmath>

#include "core/rng.h"
#include "queueing/analytic.h"
#include "queueing/fcfs_queue.h"
#include "queueing/ps_queue.h"

namespace gdisim {
namespace {

struct MmcCase {
  unsigned servers;
  double lambda;
  double mu;
};

// gtest's default dump of the struct includes the indeterminate padding after
// `servers`, which would leak into the discovered test names.
void PrintTo(const MmcCase& c, std::ostream* os) {
  *os << "c=" << c.servers << " lambda=" << c.lambda << " mu=" << c.mu;
}

class MmcConvergence : public ::testing::TestWithParam<MmcCase> {};

TEST_P(MmcConvergence, FcfsMatchesErlangC) {
  const MmcCase& p = GetParam();
  FcfsMultiServerQueue q(p.servers, 1.0);  // service unit: "work" at rate 1
  Rng rng(1234);

  const double dt = 0.002;
  const double horizon = 40000.0;
  double next_arrival = rng.next_exponential(1.0 / p.lambda);
  double t = 0.0;
  double area_jobs = 0.0;     // integral of jobs-in-system
  double busy_area = 0.0;     // integral of utilization
  std::uint64_t arrivals = 0;

  while (t < horizon) {
    while (next_arrival <= t) {
      q.enqueue(rng.next_exponential(1.0 / p.mu), nullptr);
      ++arrivals;
      next_arrival += rng.next_exponential(1.0 / p.lambda);
    }
    q.advance(dt);
    area_jobs += static_cast<double>(q.total_jobs()) * dt;
    busy_area += q.last_utilization() * dt;
    t += dt;
  }

  const double sim_mean_jobs = area_jobs / horizon;
  const double sim_util = busy_area / horizon;
  const double exp_mean_jobs = analytic::mmc_mean_in_system(p.servers, p.lambda, p.mu);
  const double exp_util = analytic::mmc_utilization(p.servers, p.lambda, p.mu);

  EXPECT_NEAR(sim_util, exp_util, 0.03) << "servers=" << p.servers;
  // Mean jobs-in-system is noisier; allow 12% relative error.
  EXPECT_NEAR(sim_mean_jobs, exp_mean_jobs, 0.12 * exp_mean_jobs + 0.05);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, MmcConvergence,
    ::testing::Values(MmcCase{1, 0.5, 1.0}, MmcCase{1, 0.7, 1.0}, MmcCase{2, 1.2, 1.0},
                      MmcCase{4, 2.8, 1.0}, MmcCase{8, 5.6, 1.0}),
    [](const ::testing::TestParamInfo<MmcCase>& tpi) {
      const auto& p = tpi.param;
      return "c" + std::to_string(p.servers) + "_rho" +
             std::to_string(static_cast<int>(100 * p.lambda / (p.servers * p.mu)));
    });

TEST(PsConvergence, Mm1PsMeanResponseMatchesAnalytic) {
  // M/M/1-PS has the same mean response time as M/M/1-FCFS.
  const double lambda = 0.6, mu = 1.0;
  PsQueue q(1.0, 0, 0.0);
  Rng rng(99);

  const double dt = 0.002;
  const double horizon = 40000.0;
  double next_arrival = rng.next_exponential(1.0 / lambda);
  double t = 0.0;
  double area_jobs = 0.0;

  while (t < horizon) {
    while (next_arrival <= t) {
      q.enqueue(rng.next_exponential(1.0 / mu), nullptr);
      next_arrival += rng.next_exponential(1.0 / lambda);
    }
    q.advance(dt);
    area_jobs += static_cast<double>(q.total_jobs()) * dt;
    t += dt;
  }
  // Little's law: E[N] = lambda * E[T].
  const double sim_mean_jobs = area_jobs / horizon;
  const double exp_mean_jobs = lambda * analytic::mm1_ps_mean_response_time(lambda, mu);
  EXPECT_NEAR(sim_mean_jobs, exp_mean_jobs, 0.12 * exp_mean_jobs + 0.05);
}

TEST(Stability, SaturatedQueueGrowsUnboundedly) {
  // rho > 1: backlog must keep growing — detects accidental work leaks.
  FcfsMultiServerQueue q(1, 1.0);
  Rng rng(7);
  const double lambda = 1.5, mu = 1.0;
  double next_arrival = rng.next_exponential(1.0 / lambda);
  double t = 0.0;
  std::size_t backlog_mid = 0;
  while (t < 2000.0) {
    while (next_arrival <= t) {
      q.enqueue(rng.next_exponential(1.0 / mu), nullptr);
      next_arrival += rng.next_exponential(1.0 / lambda);
    }
    q.advance(0.01);
    if (std::abs(t - 1000.0) < 0.005) backlog_mid = q.total_jobs();
    t += 0.01;
  }
  EXPECT_GT(q.total_jobs(), backlog_mid);
  EXPECT_GT(q.total_jobs(), 100u);
}

TEST(TickInvariance, ResultsIndependentOfStepSize) {
  // Deterministic arrival pattern served with two different step sizes must
  // complete the same jobs at (nearly) the same times.
  auto run = [](double dt) {
    FcfsMultiServerQueue q(2, 10.0);
    std::vector<double> completion_times;
    const int steps_per_second = static_cast<int>(1.0 / dt + 0.5);
    int enqueued = 0;
    for (int step = 0; step < 50 * steps_per_second; ++step) {
      // One arrival at each whole second, counted in integer steps so both
      // grids see the identical arrival pattern.
      if (step % steps_per_second == 0 && enqueued < 40) {
        q.enqueue(15.0, nullptr);
        ++enqueued;
      }
      auto r = q.advance(dt);
      const double t = (step + 1) * dt;
      for (std::size_t k = 0; k < r.completed.size(); ++k) completion_times.push_back(t);
    }
    return completion_times;
  };
  const auto coarse = run(0.1);
  const auto fine = run(0.01);
  ASSERT_EQ(coarse.size(), fine.size());
  for (std::size_t i = 0; i < coarse.size(); ++i) {
    EXPECT_NEAR(coarse[i], fine[i], 0.2) << "job " << i;
  }
}

}  // namespace
}  // namespace gdisim
