// Microbenchmarks (google-benchmark) for the queueing substrate and the
// execution engines: per-tick costs that determine how much simulated time
// the platform can cover per wall-clock second.
#include <benchmark/benchmark.h>

#include "core/h_dispatch.h"
#include "core/scatter_gather.h"
#include "queueing/fcfs_queue.h"
#include "queueing/ps_queue.h"

namespace gdisim {
namespace {

void BM_FcfsAdvance(benchmark::State& state) {
  const std::size_t jobs = static_cast<std::size_t>(state.range(0));
  FcfsMultiServerQueue q(8, 1e9);
  for (auto _ : state) {
    state.PauseTiming();
    for (std::size_t i = 0; i < jobs; ++i) q.enqueue(1e7, nullptr);
    state.ResumeTiming();
    while (q.total_jobs() > 0) benchmark::DoNotOptimize(q.advance(0.01));
  }
  state.SetItemsProcessed(state.iterations() * jobs);
}
BENCHMARK(BM_FcfsAdvance)->Arg(16)->Arg(256)->Arg(4096);

void BM_PsAdvance(benchmark::State& state) {
  const std::size_t jobs = static_cast<std::size_t>(state.range(0));
  PsQueue q(1e9, 0, 0.0);
  for (auto _ : state) {
    state.PauseTiming();
    for (std::size_t i = 0; i < jobs; ++i) q.enqueue(1e6, nullptr);
    state.ResumeTiming();
    while (q.total_jobs() > 0) benchmark::DoNotOptimize(q.advance(0.001));
  }
  state.SetItemsProcessed(state.iterations() * jobs);
}
BENCHMARK(BM_PsAdvance)->Arg(16)->Arg(256);

void BM_IdleTick(benchmark::State& state) {
  // The cost of ticking an idle queue — the dominant operation in off-peak
  // simulation phases.
  FcfsMultiServerQueue q(8, 1e9);
  for (auto _ : state) benchmark::DoNotOptimize(q.advance(0.01));
}
BENCHMARK(BM_IdleTick);

void BM_EngineForEach_ScatterGather(benchmark::State& state) {
  ScatterGatherEngine engine(static_cast<std::size_t>(state.range(0)));
  std::atomic<std::uint64_t> sink{0};
  for (auto _ : state) {
    engine.for_each(512, [&sink](std::size_t i) { sink.fetch_add(i, std::memory_order_relaxed); });
  }
  state.SetItemsProcessed(state.iterations() * 512);
}
BENCHMARK(BM_EngineForEach_ScatterGather)->Arg(1)->Arg(4)->Arg(8);

void BM_EngineForEach_HDispatch(benchmark::State& state) {
  HDispatchEngine engine(static_cast<std::size_t>(state.range(0)), 64);
  std::atomic<std::uint64_t> sink{0};
  for (auto _ : state) {
    engine.for_each(512, [&sink](std::size_t i) { sink.fetch_add(i, std::memory_order_relaxed); });
  }
  state.SetItemsProcessed(state.iterations() * 512);
}
BENCHMARK(BM_EngineForEach_HDispatch)->Arg(1)->Arg(4)->Arg(8);

}  // namespace
}  // namespace gdisim
