#include "ch4/scatter_gather.h"

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <vector>

#include "ch4/coordination.h"
#include "ch4/port.h"

namespace gdisim {

/// Per-agent scatter machinery: a typed port plus its persistent
/// single-item receiver (thesis Figure 4-2: "a message of type M is posted
/// to each port in an array of ports ... each registered with a Single-Item
/// Receiver").
struct ScatterGatherEngine::AgentPort {
  Port<std::size_t> port;
  std::shared_ptr<SingleItemReceiver<std::size_t>> receiver;
};

ScatterGatherEngine::ScatterGatherEngine(std::size_t threads)
    : dispatcher_(std::make_unique<Dispatcher>(threads)) {}

ScatterGatherEngine::~ScatterGatherEngine() = default;

void ScatterGatherEngine::ensure_ports(std::size_t count) {
  while (ports_.size() < count) {
    auto ap = std::make_unique<AgentPort>();
    AgentPort* raw = ap.get();
    // The handler resolves the current phase function at invocation time;
    // the receiver itself is registered once and lives for the engine.
    ap->receiver = SingleItemReceiver<std::size_t>::attach(
        raw->port, *dispatcher_, [this](std::size_t index) {
          const auto* fn = current_fn_.load(std::memory_order_acquire);
          (*fn)(index);
          if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
            std::lock_guard<std::mutex> lock(gather_mu_);
            gather_done_ = true;
            gather_cv_.notify_one();
          }
        });
    ports_.push_back(std::move(ap));
  }
}

void ScatterGatherEngine::for_each(std::size_t count, const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  ensure_ports(count);

  current_fn_.store(&fn, std::memory_order_release);
  remaining_.store(count, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(gather_mu_);
    gather_done_ = false;
  }

  // Scatter: one control-signal message per agent port. The arbiter pairs
  // each with the registered handler into a work item on the dispatcher —
  // deliberately allocation- and queue-heavy, which is exactly the
  // overhead Table 4.1 measures.
  for (std::size_t i = 0; i < count; ++i) ports_[i]->port.post(i);

  // Gather: wait for the acknowledgement countdown (the time
  // synchronization port role of Figure 4-3).
  std::unique_lock<std::mutex> lock(gather_mu_);
  gather_cv_.wait(lock, [this] { return gather_done_; });
}

std::unique_ptr<ExecutionEngine> make_scatter_gather_engine(std::size_t threads) {
  return std::make_unique<ScatterGatherEngine>(threads);
}

}  // namespace gdisim
