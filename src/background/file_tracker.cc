#include "background/file_tracker.h"

#include <algorithm>
#include <cmath>

namespace gdisim {

void StalenessDistribution::record(double seconds) {
  int bin = static_cast<int>(seconds / kBinSeconds);
  bin = std::clamp(bin, 0, kBins - 1);
  ++bins_[bin];
  ++count_;
  total_ += seconds;
  max_ = std::max(max_, seconds);
}

double StalenessDistribution::percentile_s(double p) const {
  if (count_ == 0) return 0.0;
  const auto target = static_cast<std::uint64_t>(std::ceil(p * static_cast<double>(count_)));
  std::uint64_t seen = 0;
  for (int b = 0; b < kBins; ++b) {
    seen += bins_[b];
    if (seen >= target) return (b + 1) * kBinSeconds;
  }
  return kBins * kBinSeconds;
}

void StalenessDistribution::merge(const StalenessDistribution& other) {
  for (int b = 0; b < kBins; ++b) bins_[b] += other.bins_[b];
  count_ += other.count_;
  total_ += other.total_;
  max_ = std::max(max_, other.max_);
}

FileTracker::FileTracker(const DataGrowthModel& growth, AccessPatternMatrix apm,
                         std::vector<DcId> creator_dcs, DcId single_owner, std::uint64_t seed)
    : growth_(growth),
      apm_(std::move(apm)),
      creator_dcs_(std::move(creator_dcs)),
      single_owner_(single_owner),
      seed_(seed) {
  DcId max_dc = single_owner;
  for (DcId d : creator_dcs_) max_dc = std::max(max_dc, d);
  per_owner_.resize(max_dc + 1);
}

void FileTracker::on_sync_complete(DcId owner, double cover_from_h, double cover_to_h,
                                   double done_h) {
  if (owner >= per_owner_.size() || cover_to_h <= cover_from_h) return;
  StalenessDistribution& dist = per_owner_[owner];
  // Deterministic stream per (owner, window): replays identically across
  // scheduler modes and restores.
  Rng rng = Rng(seed_).split("file-tracker").split(std::to_string(owner)).split(
      std::to_string(static_cast<long long>(cover_from_h * 3600.0)));

  for (DcId creator : creator_dcs_) {
    const double frac = apm_.empty()
                            ? (owner == single_owner_ ? 1.0 : 0.0)
                            : owned_growth_fraction(apm_, creator, owner);
    const double volume = growth_.generated_mb(creator, cover_from_h, cover_to_h) * frac;
    const auto files =
        static_cast<std::uint64_t>(std::llround(volume / growth_.average_file_mb()));
    for (std::uint64_t f = 0; f < files; ++f) {
      // Creation instant uniform over the covered window; staleness is the
      // gap until the run completed and the fresh version was everywhere.
      const double created_h =
          cover_from_h + rng.next_double() * (cover_to_h - cover_from_h);
      dist.record((done_h - created_h) * 3600.0);
    }
  }
}

StalenessDistribution FileTracker::pooled() const {
  StalenessDistribution out;
  for (const auto& d : per_owner_) out.merge(d);
  return out;
}

std::uint64_t FileTracker::total_files() const {
  std::uint64_t n = 0;
  for (const auto& d : per_owner_) n += d.count();
  return n;
}

}  // namespace gdisim
