// H-Dispatch engine (thesis §4.3.5, Figure 4-5; adaptation of Holmes et al.).
//
// A fixed pool of worker threads — as many as cores dedicated to the
// simulator — stays alive for the whole run. At each phase, workers *pull*
// agent sets (index chunks of `agent_set_size`) from a shared H-Dispatch
// queue until it is empty, reusing their stacks and local allocations. This
// converts the push-per-handler scatter-gather into a pull model with load
// balancing and near-zero per-agent overhead (Table 4.2 / Figure 4-6).
//
// Phases arrive back-to-back (twice per simulated tick), so workers spin on
// an atomic generation counter before falling back to a condition variable;
// a futex round-trip per phase per worker would dominate small scenarios.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "ch4/engine.h"

namespace gdisim {

class HDispatchEngine final : public ExecutionEngine {
 public:
  /// `threads` == 0 means run phases inline on the caller (serial).
  HDispatchEngine(std::size_t threads, std::size_t agent_set_size);
  ~HDispatchEngine() override;

  void for_each(std::size_t count, const std::function<void(std::size_t)>& fn) override;
  std::string_view name() const override { return "h-dispatch"; }

  std::size_t agent_set_size() const { return agent_set_size_; }
  std::size_t thread_count() const { return workers_.size(); }

 private:
  void worker_loop();

  std::size_t agent_set_size_;
  std::vector<std::thread> workers_;

  // Phase handshake. phase_count_/phase_fn_ are published by the release
  // store on generation_ and read after the acquire load; they are atomics
  // (relaxed accesses) so the master's clear of phase_fn_ after the
  // acquire/release handshake on finished_workers_ is formally race-free
  // against a straggler's read, keeping TSan clean.
  std::atomic<std::uint64_t> generation_{0};
  std::atomic<bool> stop_{false};
  std::atomic<std::size_t> phase_count_{0};
  std::atomic<const std::function<void(std::size_t)>*> phase_fn_{nullptr};
  std::atomic<std::size_t> cursor_{0};
  std::atomic<std::size_t> finished_workers_{0};

  // Sleep fallback for long idle gaps (e.g. the master doing setup).
  std::mutex mu_;
  std::condition_variable phase_cv_;
  std::condition_variable done_cv_;
};

}  // namespace gdisim
