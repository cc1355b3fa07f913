// Job abstraction shared by all queue disciplines.
//
// A job carries an amount of *work* in the unit the serving queue defines
// (CPU cycles, bits on a link, bytes from a disk...). Queues are advanced in
// discrete time steps; completed jobs are reported back to the owner via an
// opaque context pointer, which the hardware layer maps to the in-flight
// message/operation state.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

namespace gdisim {

class StateArchive;

/// Opaque owner context attached to a queued job.
using JobCtx = void*;

/// Snapshot translation between opaque job contexts and stable indices: the
/// owning component assigns indices (typically first-encounter order over
/// its JobPool contexts) because only it knows what a ctx points at.
using JobCtxEncoder = std::function<std::uint64_t(JobCtx)>;
using JobCtxDecoder = std::function<JobCtx(std::uint64_t)>;

/// Recycling allocator for per-job owner contexts. Queues identify in-flight
/// jobs by an opaque pointer that must stay stable until completion, so
/// components allocate one context per accepted job and free it when the job
/// finishes — at millions of jobs per run that malloc/free pair dominates the
/// accept/complete path. The pool hands back freed slots instead. Each
/// component touches its own pool only from its own phases.
///
/// The pool also replaces the pointer-keyed live-job sets the components used
/// to carry for teardown: it owns every slot (in-flight contexts are freed by
/// the pool destructor in allocation order, never by iterating an
/// address-ordered container), and live() counts the in-flight contexts.
template <typename T>
class JobPool {
 public:
  T* create(const T& value) {
    ++live_;
    if (!free_.empty()) {
      T* slot = free_.back();
      free_.pop_back();
      *slot = value;
      return slot;
    }
    slots_.push_back(std::make_unique<T>(value));
    return slots_.back().get();
  }
  void destroy(T* slot) {
    --live_;
    free_.push_back(slot);
  }

  /// Returns every slot to the free list, for a snapshot load that is about
  /// to replace all in-flight contexts.
  void release_all() {
    free_.clear();
    for (const auto& slot : slots_) free_.push_back(slot.get());
    live_ = 0;
  }

  /// Contexts created and not yet destroyed.
  std::size_t live() const { return live_; }

 private:
  std::vector<std::unique_ptr<T>> slots_;  // ARCHIVE-TRANSIENT: pool storage; load re-creates live jobs via QueueStation::archive_jobs
  std::vector<T*> free_;  // ARCHIVE-TRANSIENT: pool storage; load re-creates live jobs via QueueStation::archive_jobs
  std::size_t live_ = 0;  // ARCHIVE-TRANSIENT: pool storage; load re-creates live jobs via QueueStation::archive_jobs
};

struct QueuedJob {
  double remaining = 0.0;  ///< work left, in the queue's service unit
  JobCtx ctx = nullptr;
  std::uint64_t enqueue_seq = 0;  ///< FCFS tie-break / diagnostics
};

/// Result of advancing a queue by one time step.
struct AdvanceResult {
  std::vector<JobCtx> completed;  ///< jobs finished during the step, in order
  double work_done = 0.0;         ///< total work served during the step
};

}  // namespace gdisim
