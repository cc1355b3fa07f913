// Table 4.1 / Figure 4-4: multicore scalability of the classic
// Scatter-Gather mechanism. One dispatcher work item is created per agent
// per phase; the per-handler overhead of pairing the message with the
// handler and pushing it through the dispatcher queue cancels the parallel
// speedup, exactly as the thesis reports.
#include <atomic>
#include <thread>

#include "bench_scenario_scalability.h"
#include "bench_util.h"
#include "ch4/scatter_gather.h"

using namespace gdisim;

namespace {

double run_ticks(ExecutionEngine& engine, Tick ticks) {
  bench::ScalabilityWorld world(bench::kScalabilityAgents, engine);
  world.run_until(ticks / 10);  // warmup
  bench::Stopwatch sw;
  world.run_until(world.now + ticks);
  return sw.seconds();
}

/// Per-handler dispatch overhead: time to push an (almost) empty handler
/// through the mechanism, amortized per agent. This isolates the quantity
/// the thesis blames for Table 4.1's flat speedup, and is measurable even
/// on a single-core host.
double dispatch_overhead_ns(ExecutionEngine& engine) {
  std::atomic<std::uint64_t> sink{0};
  const std::size_t agents = 4096;
  const int rounds = 200;
  bench::Stopwatch sw;
  for (int r = 0; r < rounds; ++r) {
    engine.for_each(agents, [&sink](std::size_t i) {
      sink.fetch_add(i, std::memory_order_relaxed);
    });
  }
  return sw.seconds() / (double(agents) * rounds) * 1e9;
}

void environment_note() {
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw <= 1) {
    std::cout << "\nENVIRONMENT: this host exposes a single CPU core; wall-clock\n"
                 "speedup > 1x is physically impossible here. The per-handler\n"
                 "dispatch overhead above is the thread-count-independent quantity\n"
                 "that produces the thesis' speedup curves on multicore hosts.\n";
  }
}

}  // namespace

int main() {
  bench::header("Classic Scatter-Gather multicore scalability",
                "Table 4.1 / Figure 4-4 (simulation time & speedup vs #threads)");

  const Tick ticks = bench::fast_mode() ? 500 : 2000;
  TableReport t({"# of Threads", "Wall time (s)", "Speedup (x)", "Linear (x)",
                 "Dispatch overhead (ns/handler)"});
  double base = 0.0;
  for (std::size_t threads : {1u, 2u, 4u, 8u, 16u}) {
    ScatterGatherEngine engine(threads);
    const double wall = run_ticks(engine, ticks);
    if (threads == 1) base = wall;
    ScatterGatherEngine probe(threads);
    t.add_row({std::to_string(threads), TableReport::fmt(wall, 2),
               TableReport::fmt(base / wall, 2), TableReport::fmt(double(threads), 2),
               TableReport::fmt(dispatch_overhead_ns(probe), 0)});
  }
  t.print(std::cout);
  environment_note();
  bench::footnote(
      "Thesis shape (Table 4.1): speedup pinned near 1.0x at every thread "
      "count — the work inside each handler is too small to amortize the "
      "per-handler dispatch overhead shown in the last column.");
  return 0;
}
