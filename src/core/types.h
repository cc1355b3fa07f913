// Fundamental simulation types shared by every GDISim module.
//
// The simulator is time-stepped (thesis §4.3.1): a central timer advances a
// discrete clock and every agent consumes one tick of simulated time per
// heartbeat. All durations inside the engine are expressed in integer ticks;
// the tick length in seconds is a run parameter chosen at least an order of
// magnitude below the smallest canonical operation cost.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

namespace gdisim {

/// Discrete simulation time, in ticks since the start of the run.
using Tick = std::int64_t;

/// Sentinel for "no deadline / never".
inline constexpr Tick kNeverTick = std::numeric_limits<Tick>::max();

/// The one checked double -> Tick conversion: a count of `ticks` truncated
/// toward zero. A count at or beyond the Tick range (2^63, or +inf) is
/// kNeverTick, a count at or below zero is 0, and NaN throws
/// std::domain_error.
inline Tick whole_ticks(double ticks) {
  if (std::isnan(ticks)) throw std::domain_error("tick count is not a number");
  if (ticks <= 0.0) return 0;
  if (ticks >= 0x1p63) return kNeverTick;
  return static_cast<Tick>(ticks);
}

/// `t + d` for non-negative ticks, saturating at kNeverTick: a duration of
/// "never" added to any tick stays never.
inline Tick saturating_add(Tick t, Tick d) { return d >= kNeverTick - t ? kNeverTick : t + d; }

/// Identifier of an agent registered with the simulation loop. Dense,
/// assigned at registration time, usable as a vector index.
using AgentId = std::uint32_t;

inline constexpr AgentId kInvalidAgent = std::numeric_limits<AgentId>::max();

/// Converts between wall-clock seconds of *simulated* time and ticks.
class TickClock {
 public:
  explicit TickClock(double tick_seconds) : tick_seconds_(tick_seconds) {}

  double tick_seconds() const { return tick_seconds_; }

  double to_seconds(Tick t) const { return static_cast<double>(t) * tick_seconds_; }

  /// Rounds up so that a nonzero duration never becomes zero ticks. A
  /// duration beyond the Tick range is kNeverTick; NaN throws.
  Tick to_ticks(double seconds) const {
    if (seconds <= 0.0) return 0;
    const double t = seconds / tick_seconds_;
    const Tick whole = whole_ticks(t);
    if (whole == kNeverTick) return kNeverTick;
    return (static_cast<double>(whole) >= t) ? whole : whole + 1;
  }

 private:
  double tick_seconds_;
};

/// Hour-of-day in GMT as used throughout the evaluation chapters.
inline double hour_of_day(double seconds_since_midnight) {
  return seconds_since_midnight / 3600.0;
}

/// Human-readable h:mm:ss for reports.
std::string format_sim_time(double seconds);

}  // namespace gdisim
