// Table 4.2 / Figure 4-6: multicore scalability of the H-Dispatch mechanism
// (agent set = 64), plus an ablation over agent-set sizes (the thesis notes
// 64 delivered the best results).
#include <algorithm>
#include <atomic>
#include <thread>

#include "bench_scenario_scalability.h"
#include "bench_util.h"
#include "ch4/h_dispatch.h"

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
  bench::header("H-Dispatch multicore scalability (Agent Set = 64)",
                "Table 4.2 / Figure 4-6 (simulation time & speedup vs #threads)");

  const Tick ticks = bench::fast_mode() ? 500 : 2000;
  TableReport t({"# of Threads", "Wall time (s)", "Speedup (x)", "Linear (x)",
                 "Dispatch overhead (ns/handler)"});
  double base = 0.0;
  for (std::size_t threads : {1u, 2u, 4u, 8u, 16u}) {
    HDispatchEngine engine(threads, 64);
    const double wall = run_ticks(engine, ticks);
    if (threads == 1) base = wall;
    HDispatchEngine probe(threads, 64);
    t.add_row({std::to_string(threads), TableReport::fmt(wall, 2),
               TableReport::fmt(base / wall, 2), TableReport::fmt(double(threads), 2),
               TableReport::fmt(dispatch_overhead_ns(probe), 1)});
  }
  t.print(std::cout);

  // One worker per host core (at least two, so agent sets are actually
  // shared out between workers).
  const std::size_t ablation_threads =
      std::max<std::size_t>(2, std::thread::hardware_concurrency());
  std::cout << "\nAblation: agent-set size at " << ablation_threads
            << " threads (thesis: 64 is best):\n";
  TableReport a({"Agent Set", "Wall time (s)"});
  for (std::size_t set : {1u, 8u, 64u, 256u}) {
    HDispatchEngine engine(ablation_threads, set);
    a.add_row({std::to_string(set), TableReport::fmt(run_ticks(engine, ticks), 2)});
  }
  a.print(std::cout);
  environment_note();
  bench::footnote(
      "Thesis shape (Table 4.2): 1.7x @ 2 threads growing to ~8x @ 16 with "
      "efficiency decaying from ~85% to ~50%. The enabling property is the "
      "order-of-magnitude smaller per-handler overhead vs Scatter-Gather "
      "(last column; compare bench_scalability_scatter_gather).");
  return 0;
}
