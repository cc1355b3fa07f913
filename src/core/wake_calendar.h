// Wake calendar of the active-set scheduler (DESIGN.md "Scheduler"): a lazy
// (tick, id) min-heap of the agents that sleep until a known tick.
//
// Entries are lazy: the authoritative arm time lives in armed_[id], so
// re-arming an agent simply overwrites it, and stale heap entries are dropped
// as they surface. Wakes that fall due on the same tick come out in id order.
// Delivery wakes go through the loop's woken list, not the calendar.
#pragma once

#include <cstddef>
#include <queue>
#include <utility>
#include <vector>

#include "core/types.h"

namespace gdisim {

class WakeCalendar {
 public:
  /// Grows the per-agent arm-time table; new agents start disarmed.
  void ensure_agents(std::size_t count) {
    if (armed_.size() < count) armed_.resize(count, kNeverTick);
  }

  /// Arms (or re-arms) `id` to wake at tick `at`. Idempotent for an
  /// unchanged `at`.
  void arm(AgentId id, Tick at) {
    if (armed_[id] == at) return;
    armed_[id] = at;
    heap_.emplace(at, id);
  }

  /// Forgets a pending wake; its stale heap entry is dropped when it
  /// surfaces.
  void disarm(AgentId id) { armed_[id] = kNeverTick; }

  Tick armed_at(AgentId id) const { return armed_[id]; }

  /// Calls admit(id) for every agent whose wake time has come (<= now), in
  /// (tick, id) order.
  template <typename Fn>
  void collect_due(Tick now, Fn&& admit) {
    while (!heap_.empty() && heap_.top().first <= now) {
      const auto [at, id] = heap_.top();
      heap_.pop();
      if (armed_[id] == at) {
        armed_[id] = kNeverTick;
        admit(id);
      }
    }
  }

 private:
  std::priority_queue<std::pair<Tick, AgentId>, std::vector<std::pair<Tick, AgentId>>,
                      std::greater<>>
      heap_;
  std::vector<Tick> armed_;
};

}  // namespace gdisim
