// Bucketed wake calendar for the active-set scheduler (DESIGN.md
// "Scheduler"): a timing wheel over Tick with a min-heap overflow for wakes
// beyond the wheel horizon.
//
// The wheel has a power-of-two number of slots; a wake armed for tick t with
// t - now < slots lands in slot (t & mask) and cannot alias another pending
// tick because the loop visits every tick in order. Entries are lazy: the
// authoritative arm time lives in armed_[id], so re-arming an agent simply
// overwrites it and stale wheel/heap entries are dropped (or re-filed, when
// the agent was re-armed for a later tick) as their slot comes due.
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
  explicit WakeCalendar(std::size_t wheel_slots = 4096) {
    std::size_t pow2 = 1;
    while (pow2 < wheel_slots) pow2 <<= 1;
    wheel_.resize(pow2);
    mask_ = pow2 - 1;
  }

  /// Grows the per-agent arm-time table; new agents start disarmed.
  void ensure_agents(std::size_t count) {
    if (armed_.size() < count) armed_.resize(count, kNeverTick);
  }

  /// Arms (or re-arms) `id` to wake at tick `at` (> now). Idempotent for an
  /// unchanged `at`.
  void arm(AgentId id, Tick at, Tick now) {
    if (armed_[id] == at) return;
    armed_[id] = at;
    file_entry(id, at, now);
  }

  /// Forgets a pending wake; any stale wheel/heap entries are dropped when
  /// their slot comes due.
  void disarm(AgentId id) { armed_[id] = kNeverTick; }

  Tick armed_at(AgentId id) const { return armed_[id]; }

  std::size_t wheel_slots() const { return wheel_.size(); }

  /// Calls admit(id) for every agent whose wake time is `now`. Must be
  /// invoked for every tick in order (the loop never skips ticks).
  template <typename Fn>
  void collect_due(Tick now, Fn&& admit) {
    auto& slot = wheel_[static_cast<std::size_t>(now) & mask_];
    scratch_.clear();
    scratch_.swap(slot);
    for (AgentId id : scratch_) {
      const Tick at = armed_[id];
      if (at == now) {
        armed_[id] = kNeverTick;
        admit(id);
      } else if (at != kNeverTick && at > now) {
        // Re-armed for a later tick after this entry was filed; keep the
        // reservation alive in its new slot.
        file_entry(id, at, now);
      }
    }
    while (!far_.empty() && far_.top().first <= now) {
      const AgentId id = far_.top().second;
      const Tick at = far_.top().first;
      far_.pop();
      if (armed_[id] == at) {
        armed_[id] = kNeverTick;
        admit(id);
      }
    }
  }

 private:
  void file_entry(AgentId id, Tick at, Tick now) {
    if (at - now < static_cast<Tick>(wheel_.size())) {
      wheel_[static_cast<std::size_t>(at) & mask_].push_back(id);
    } else {
      far_.emplace(at, id);
    }
  }

  std::vector<std::vector<AgentId>> wheel_;
  std::size_t mask_ = 0;
  std::vector<AgentId> scratch_;
  std::priority_queue<std::pair<Tick, AgentId>, std::vector<std::pair<Tick, AgentId>>,
                      std::greater<>>
      far_;
  std::vector<Tick> armed_;
};

}  // namespace gdisim
