// Multi-socket multi-core CPU: p x M/M/q FCFS (thesis §3.4.2, Figure 3-4).
//
// Each socket is an independent FCFS queue with q core-servers; the service
// rate of a core is its clock frequency in cycles per second. Incoming jobs
// (work = cycles) are placed on the socket with the fewest outstanding jobs
// (ties to the lowest index) — a deterministic stand-in for the OS
// scheduler. Hyper-threading is modeled by inflating q by an empirical
// speedup factor, as the thesis prescribes.
//
// Multithreaded jobs (thesis §9.1.1, future work): a stage with
// parallelism > 1 forks its cycles across up to that many cores of one
// socket and completes when every share has been served.
#pragma once

#include <vector>

#include "hardware/component.h"
#include "queueing/fcfs_queue.h"

namespace gdisim {

struct CpuSpec {
  unsigned sockets = 1;
  unsigned cores_per_socket = 4;
  double frequency_hz = 2.5e9;
  /// Effective-core multiplier for hyper-threading (1.0 = disabled).
  double smt_speedup = 1.0;

  unsigned effective_cores_per_socket() const {
    const double c = cores_per_socket * smt_speedup;
    return c < 1.0 ? 1u : static_cast<unsigned>(c);
  }
  unsigned total_cores() const { return sockets * cores_per_socket; }
};

class CpuComponent final : public QueueStation {
 public:
  explicit CpuComponent(const CpuSpec& spec);

  const CpuSpec& spec() const { return spec_; }

 protected:
  void accept(StageJob job) override;
  void advance_tick(Tick now, double dt) override;
  double raw_utilization() const override { return last_utilization_; }
  void archive_discipline(StateArchive& ar, HandlerRegistry& reg) override;

 private:
  CpuSpec spec_;  // ARCHIVE-TRANSIENT: hardware spec; construction-time configuration
  std::vector<FcfsMultiServerQueue> sockets_;
  double last_utilization_ = 0.0;
};

}  // namespace gdisim
