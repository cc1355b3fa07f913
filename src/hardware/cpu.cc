#include "hardware/cpu.h"

#include <algorithm>

#include "core/archive.h"

namespace gdisim {

// A single job runs on one core, at the core's clock rate.
CpuComponent::CpuComponent(const CpuSpec& spec)
    : QueueStation(static_cast<double>(spec.sockets) * spec.effective_cores_per_socket() *
                       spec.frequency_hz,
                   spec.frequency_hz),
      spec_(spec) {
  sockets_.reserve(spec.sockets);
  for (unsigned p = 0; p < spec.sockets; ++p) {
    sockets_.emplace_back(spec.effective_cores_per_socket(), spec.frequency_hz);
  }
}

void CpuComponent::accept(StageJob job) {
  // Deterministic least-loaded socket placement.
  std::size_t best = 0;
  for (std::size_t p = 1; p < sockets_.size(); ++p) {
    if (sockets_[p].total_jobs() < sockets_[best].total_jobs()) best = p;
  }
  // Parallel jobs (§9.1.1) fork across up to `parallelism` cores of the
  // chosen socket; total cycles are unchanged, latency shrinks.
  const unsigned shares =
      std::max(1u, std::min(job.parallelism, spec_.effective_cores_per_socket()));
  PendingJob* pending = admit(job, shares);
  const double share_work = job.work / static_cast<double>(shares);
  for (unsigned k = 0; k < shares; ++k) sockets_[best].enqueue(share_work, pending);
}

void CpuComponent::advance_tick(Tick now, double dt) {
  double util_sum = 0.0;
  for (auto& socket : sockets_) {
    socket.advance(dt, completed_);
    util_sum += socket.last_utilization();
    for (JobCtx ctx : completed_) finish_share(ctx, now);
  }
  last_utilization_ = util_sum / static_cast<double>(sockets_.size());
}

void CpuComponent::archive_discipline(StateArchive& ar, HandlerRegistry& reg) {
  ar.section("cpu");
  std::size_t sockets = sockets_.size();
  ar.size_value(sockets);
  ar.expect_equal(sockets, sockets_.size(), "cpu socket count");
  archive_jobs(ar, reg, [this](auto&& visit) {
    for (auto& socket : sockets_) visit(socket);
  });
  ar.f64(last_utilization_);
}

}  // namespace gdisim
