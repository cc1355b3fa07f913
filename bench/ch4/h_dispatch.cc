#include "ch4/h_dispatch.h"

#include <algorithm>
#include <thread>

namespace gdisim {

namespace {
// Hot-spinning between phases only helps when another core can make
// progress; on a single-core host it would steal time from the worker that
// holds the work.
int spin_budget() {
  static const int budget = std::thread::hardware_concurrency() > 1 ? 20000 : 0;
  return budget;
}
}

HDispatchEngine::HDispatchEngine(std::size_t threads, std::size_t agent_set_size)
    : agent_set_size_(std::max<std::size_t>(1, agent_set_size)) {
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

HDispatchEngine::~HDispatchEngine() {
  stop_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(mu_);
  }
  phase_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void HDispatchEngine::for_each(std::size_t count, const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  if (workers_.empty()) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }

  phase_count_.store(count, std::memory_order_relaxed);
  phase_fn_.store(&fn, std::memory_order_relaxed);
  cursor_.store(0, std::memory_order_relaxed);
  finished_workers_.store(0, std::memory_order_relaxed);
  generation_.fetch_add(1, std::memory_order_release);
  {
    // Pairing with the sleepers' predicate check: without taking the mutex
    // the notify could land between a worker's predicate evaluation and its
    // wait(), losing the wakeup for good.
    std::lock_guard<std::mutex> lock(mu_);
  }
  phase_cv_.notify_all();

  // The master also pulls agent sets — it would otherwise idle while
  // holding a core the thesis counts as a worker.
  for (;;) {
    const std::size_t begin = cursor_.fetch_add(agent_set_size_, std::memory_order_relaxed);
    if (begin >= count) break;
    const std::size_t end = std::min(begin + agent_set_size_, count);
    for (std::size_t i = begin; i < end; ++i) fn(i);
  }

  // Wait for stragglers: spin, then sleep. The acquire load of
  // finished_workers_ pairs with each worker's acq_rel increment, so every
  // worker's final read of phase_fn_ happens-before the clear below.
  for (int spin = 0; spin < spin_budget(); ++spin) {
    if (finished_workers_.load(std::memory_order_acquire) == workers_.size()) {
      phase_fn_.store(nullptr, std::memory_order_relaxed);
      return;
    }
    if ((spin & 63) == 63) std::this_thread::yield();
  }
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [this] {
    return finished_workers_.load(std::memory_order_acquire) == workers_.size();
  });
  phase_fn_.store(nullptr, std::memory_order_relaxed);
}

void HDispatchEngine::worker_loop() {
  std::uint64_t seen_generation = 0;
  for (;;) {
    // Wait for a new generation: lock-free spin first, condvar fallback.
    bool have_phase = false;
    for (int spin = 0; spin < spin_budget(); ++spin) {
      if (stop_.load(std::memory_order_acquire)) return;
      if (generation_.load(std::memory_order_acquire) != seen_generation) {
        have_phase = true;
        break;
      }
      if ((spin & 63) == 63) std::this_thread::yield();
    }
    if (!have_phase) {
      std::unique_lock<std::mutex> lock(mu_);
      phase_cv_.wait(lock, [this, seen_generation] {
        return stop_.load(std::memory_order_acquire) ||
               generation_.load(std::memory_order_acquire) != seen_generation;
      });
      if (stop_.load(std::memory_order_acquire)) return;
    }
    seen_generation = generation_.load(std::memory_order_acquire);
    const std::size_t count = phase_count_.load(std::memory_order_relaxed);
    const std::function<void(std::size_t)>* fn = phase_fn_.load(std::memory_order_relaxed);

    // Pull agent sets from the H-Dispatch queue until it runs dry.
    for (;;) {
      const std::size_t begin = cursor_.fetch_add(agent_set_size_, std::memory_order_relaxed);
      if (begin >= count) break;
      const std::size_t end = std::min(begin + agent_set_size_, count);
      for (std::size_t i = begin; i < end; ++i) (*fn)(i);
    }

    if (finished_workers_.fetch_add(1, std::memory_order_acq_rel) + 1 == workers_.size()) {
      std::lock_guard<std::mutex> lock(mu_);
      done_cv_.notify_one();
    }
  }
}

std::unique_ptr<ExecutionEngine> make_h_dispatch_engine(std::size_t threads,
                                                        std::size_t agent_set_size) {
  return std::make_unique<HDispatchEngine>(threads, agent_set_size);
}

}  // namespace gdisim
