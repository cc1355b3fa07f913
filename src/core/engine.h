// Execution engines: strategies for running one phase of agent work (thesis
// Ch. 4). An engine's only job is to apply a function to indices [0, count)
// with some parallelization strategy. SimulationLoop does not use them —
// scenario runs are serial — but the Ch. 4 scalability benches drive their
// synthetic agents through them (bench/bench_scenario_scalability.h). Three
// engines are provided:
//   * SerialEngine         — plain loop (reference semantics)
//   * ScatterGatherEngine  — one dispatcher work item per agent (thesis
//                            §4.3.4; does not scale, reproduced by
//                            bench_scalability_scatter_gather)
//   * HDispatchEngine      — fixed worker pool pulling agent *sets* from a
//                            shared queue (thesis §4.3.5; scales, reproduced
//                            by bench_scalability_h_dispatch)
// Every engine visits each index exactly once per phase and returns only
// when the phase is done; only wall-clock performance differs (tested in
// tests/core/engine_test.cc).
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string_view>

namespace gdisim {

class ExecutionEngine {
 public:
  virtual ~ExecutionEngine() = default;

  /// Applies `fn` to every index in [0, count). Returns when all are done.
  /// `fn` must be safe to call concurrently for distinct indices.
  virtual void for_each(std::size_t count, const std::function<void(std::size_t)>& fn) = 0;

  virtual std::string_view name() const = 0;
};

class SerialEngine final : public ExecutionEngine {
 public:
  void for_each(std::size_t count, const std::function<void(std::size_t)>& fn) override;
  std::string_view name() const override { return "serial"; }
};

/// Factory helpers (definitions in scatter_gather.cc / h_dispatch.cc).
std::unique_ptr<ExecutionEngine> make_scatter_gather_engine(std::size_t threads);
std::unique_ptr<ExecutionEngine> make_h_dispatch_engine(std::size_t threads,
                                                        std::size_t agent_set_size);

}  // namespace gdisim
