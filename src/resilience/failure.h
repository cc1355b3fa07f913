// Failure injection (thesis §1.1 motivation #3 "Continuous Failure" and
// Figure 1-1 applications #5 "Bottleneck Detection" / #7 "Internet Attack
// Protection").
//
// A FailureInjector holds a schedule of infrastructure events — WAN links
// going down/up, servers crashing/recovering — and applies them from a
// pre-tick hook, so routing tables and load-balancer state mutate only
// between agent phases. Semantics: work already queued on a
// failed element drains; *new* messages route around it (links fail over to
// backup links, tiers skip dead servers).
#pragma once

#include <string>
#include <vector>

#include "core/sim_loop.h"
#include "hardware/topology.h"

namespace gdisim {

struct FailureEvent {
  enum class Kind {
    kLinkDown,
    kLinkUp,
    kServerDown,
    kServerUp,
  };

  double at_seconds = 0.0;
  Kind kind = Kind::kLinkDown;
  // Link events.
  DcId from = kInvalidDc;
  DcId to = kInvalidDc;
  // Server events.
  DcId dc = kInvalidDc;
  TierKind tier = TierKind::App;
  std::size_t server_index = 0;

  static FailureEvent link_down(double at_s, DcId from, DcId to);
  static FailureEvent link_up(double at_s, DcId from, DcId to);
  static FailureEvent server_down(double at_s, DcId dc, TierKind tier, std::size_t index);
  static FailureEvent server_up(double at_s, DcId dc, TierKind tier, std::size_t index);
};

/// Record of an applied event, for reports and assertions.
struct AppliedFailure {
  double at_seconds = 0.0;
  std::string description;
};

class FailureInjector {
 public:
  explicit FailureInjector(Topology& topology) : topology_(&topology) {}

  /// Schedules an event; events may be added in any order.
  void schedule(FailureEvent event);

  /// Registers the pre-tick hook on the loop. Call once, after all agents
  /// are registered.
  void install(SimulationLoop& loop);

  const std::vector<AppliedFailure>& applied() const { return applied_; }
  std::size_t pending() const;

 private:
  void apply_due(Tick now, const TickClock& clock);
  void apply(const FailureEvent& event, double at_seconds);

  Topology* topology_;
  std::vector<FailureEvent> schedule_;
  std::vector<bool> done_;
  std::vector<AppliedFailure> applied_;
};

}  // namespace gdisim
