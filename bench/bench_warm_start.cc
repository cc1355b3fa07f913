// Warm-start scenario sweeps (DESIGN.md §8): instead of simulating every
// what-if variant from t=0, run the shared prefix once, snapshot it with
// save_state(), and fork each perturbed scenario from the warm snapshot with
// load_state(). The prefix cost is paid once instead of N times, so the
// sweep approaches prefix + N * suffix instead of N * (prefix + suffix).
//
// Perturbations must be structural no-ops (think times, growth rates) —
// exactly the knobs a capacity-planning sweep turns.
#include <sstream>

#include "bench_util.h"
#include "config/loader.h"
#include "sim/fingerprint.h"

using namespace gdisim;

namespace {

// Two-site scenario (configs/two_site.gdisim, inlined so the bench is
// self-contained): HQ + branch office over a 155 Mbps WAN.
constexpr const char* kBaseScenario = R"(
tick 0.02
seed 2024
master HQ

datacenter HQ
  switch 40
  san 2 24 15000
  tier app 2 4 32
  tier db 1 8 64
  tier fs 1 4 16
  tier idx 1 4 32
end

datacenter BRANCH
  switch 40
  san 1 8 15000
  tier fs 1 4 16
end

link HQ BRANCH 0.155 40 0.2

population CAD@BRANCH BRANCH CAD 20
  think 30
  size 25
end

population VIS@HQ HQ VIS 30
  think 20
  size 5
end

growth HQ 1500 8 17
growth BRANCH 400 8 17

synchrep HQ 900
indexbuild HQ 300
)";

struct Variant {
  const char* label;
  const char* from;  // substring of kBaseScenario to perturb
  const char* to;
};

// A think-time / growth-rate sweep: every variant is structurally identical
// to the base scenario, so each can fork from the base warm snapshot.
constexpr Variant kVariants[] = {
    {"baseline", "think 30", "think 30"},
    {"think-15", "think 30", "think 15"},
    {"think-45", "think 30", "think 45"},
    {"growth-x3", "growth HQ 1500", "growth HQ 4500"},
};

GdiSimulator make_sim(const Variant& v) {
  std::string text = kBaseScenario;
  const auto pos = text.find(v.from);
  text.replace(pos, std::string(v.from).size(), v.to);
  std::istringstream is(text);
  Scenario scenario = load_scenario(is, "<warm-start-bench>");
  SimulatorConfig cfg;
  return GdiSimulator(std::move(scenario), cfg);
}

}  // namespace

int main() {
  bench::header("Warm-start scenario forking vs cold sweeps",
                "DESIGN.md §8 — checkpoint/restore as a sweep accelerator");

  const double warm_s = 3600.0;
  const double end_s = 4800.0;
  const std::size_t n = sizeof(kVariants) / sizeof(kVariants[0]);

  // Cold baseline: every variant simulates the full window from t=0.
  bench::Stopwatch cold_sw;
  std::vector<std::uint64_t> cold_fps;
  for (const Variant& v : kVariants) {
    GdiSimulator sim = make_sim(v);
    sim.run_for(end_s);
    cold_fps.push_back(result_fingerprint(sim));
  }
  const double cold_seconds = cold_sw.seconds();

  // Warm sweep: shared prefix once, then fork each variant from the
  // snapshot and simulate only the suffix.
  bench::Stopwatch warmup_sw;
  std::vector<std::uint8_t> snapshot;
  {
    GdiSimulator base = make_sim(kVariants[0]);
    base.run_for(warm_s);
    snapshot = base.save_state();
  }
  const double warmup_seconds = warmup_sw.seconds();

  bench::Stopwatch sweep_sw;
  std::vector<std::uint64_t> warm_fps;
  for (const Variant& v : kVariants) {
    GdiSimulator sim = make_sim(v);
    sim.load_state(snapshot);
    sim.run_until_seconds(end_s);
    warm_fps.push_back(result_fingerprint(sim));
  }
  const double sweep_seconds = sweep_sw.seconds();
  const double warm_seconds = warmup_seconds + sweep_seconds;
  const double speedup = warm_seconds > 0.0 ? cold_seconds / warm_seconds : 0.0;

  // The baseline variant's warm fork replays the identical scenario, so it
  // must land on the cold baseline's fingerprint bit-for-bit; the perturbed
  // forks must diverge from it (the perturbation actually took effect).
  const bool baseline_matches = warm_fps[0] == cold_fps[0];
  std::size_t diverged = 0;
  for (std::size_t i = 1; i < n; ++i) {
    if (warm_fps[i] != warm_fps[0]) ++diverged;
  }

  TableReport t({"sweep", "wall (s)", "per variant (s)"});
  t.add_row({"cold (from t=0)", TableReport::fmt(cold_seconds),
             TableReport::fmt(cold_seconds / static_cast<double>(n))});
  t.add_row({"warm (forked)", TableReport::fmt(warm_seconds),
             TableReport::fmt(warm_seconds / static_cast<double>(n))});
  t.print(std::cout);
  std::cout << "\nvariants: " << n << ", warm prefix " << warm_s << " s of " << end_s
            << " s window\nwarmup " << warmup_seconds << " s + sweep " << sweep_seconds
            << " s; speedup vs cold: " << speedup << "x\n"
            << "baseline fork reproduces cold fingerprint: "
            << (baseline_matches ? "yes" : "NO") << "; perturbed forks diverged: " << diverged
            << "/" << (n - 1) << "\n";

  bench::footnote(
      "Expected: warm total ~= warmup + N * suffix, beating N cold windows "
      "whenever the shared prefix dominates; the baseline fork is "
      "bit-identical to its cold run because snapshots capture every layer.");
  return baseline_matches && diverged == n - 1 ? 0 : 1;
}
