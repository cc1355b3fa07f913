// Classic Scatter-Gather engine (thesis §4.3.4, Figures 4-2/4-3).
//
// At every phase a control-signal message is posted to each agent's port;
// the arbiter pairs it with the agent handler into a work item and the
// dispatcher's thread pool executes one work item per agent. Completion is
// gathered via an acknowledgement countdown (the time-synchronization port
// of Figure 4-3). Per-handler overhead makes this mechanism scale poorly —
// that is the phenomenon Table 4.1 documents, reproduced by
// bench_scalability_scatter_gather.
#pragma once

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <vector>

#include "ch4/dispatcher.h"
#include "ch4/engine.h"

namespace gdisim {

class ScatterGatherEngine final : public ExecutionEngine {
 public:
  explicit ScatterGatherEngine(std::size_t threads);
  ~ScatterGatherEngine() override;

  void for_each(std::size_t count, const std::function<void(std::size_t)>& fn) override;
  std::string_view name() const override { return "scatter-gather"; }

  Dispatcher& dispatcher() { return *dispatcher_; }

 private:
  struct AgentPort;

  void ensure_ports(std::size_t count);

  std::unique_ptr<Dispatcher> dispatcher_;
  std::vector<std::unique_ptr<AgentPort>> ports_;
  std::atomic<const std::function<void(std::size_t)>*> current_fn_{nullptr};
  std::atomic<std::size_t> remaining_{0};
  std::mutex gather_mu_;
  std::condition_variable gather_cv_;
  bool gather_done_ = false;
};

}  // namespace gdisim
