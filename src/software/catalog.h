// The standard operation catalog: CAD, VIS and PDM cascades (thesis §5.2.2,
// §6.3.2, Figures 5-2..5-5) plus builders for the SYNCHREP and INDEXBUILD
// daemon cascades (Figures 6-8/6-9).
//
// The R parameter arrays here are the *synthetic canonical costs* replacing
// the thesis' proprietary profiling data (DESIGN.md §1); they are calibrated
// so that a single isolated operation on the Ch. 5 validation infrastructure
// reproduces the Table 5.1 durations (pinned by tests/software/
// catalog_calibration_test.cc).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "software/cascade.h"

namespace gdisim {

class OperationCatalog {
 public:
  /// Catalog with every CAD/VIS/PDM operation of the thesis.
  static OperationCatalog standard();

  void add(CascadeSpec spec);
  const CascadeSpec& get(const std::string& name) const;  // e.g. "CAD.OPEN"
  bool contains(const std::string& name) const { return ops_.count(name) > 0; }

  /// All operation names with the given application prefix ("CAD", ...).
  std::vector<std::string> operations_of(const std::string& app) const;

  /// Dense-id view: every op gets a stable `CascadeSpec::op_id` in
  /// [0, op_count()) at add() time; launchers size per-op statistics tables
  /// from op_count() and index them by id instead of by name.
  std::size_t op_count() const { return by_id_.size(); }
  const CascadeSpec& by_id(std::uint32_t id) const { return *by_id_.at(id); }

  /// Visits every spec in name order (the map's iteration order).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const auto& [name, spec] : ops_) fn(spec);
  }

 private:
  std::map<std::string, CascadeSpec> ops_;
  std::vector<const CascadeSpec*> by_id_;  // values in ops_ are node-stable
};

/// File sizes (MB) of the three Ch. 5 validation series.
struct SeriesSizes {
  static constexpr double kLightMb = 25.0;
  static constexpr double kAverageMb = 56.0;
  static constexpr double kHeavyMb = 85.0;
};

/// SYNCHREP (Figure 6-8): pull phase — one parallel branch per source data
/// center moving `pull.second` MB to the master; push phase — one parallel
/// branch per destination moving `push.second` MB from the master.
CascadeSpec make_synchrep_cascade(DcId master_dc,
                                  const std::vector<std::pair<DcId, double>>& pull_mb,
                                  const std::vector<std::pair<DcId, double>>& push_mb);

/// INDEXBUILD (Figure 6-9): moves `volume_mb` of flagged files from the
/// master file tier through the index tier and registers results in the db.
/// `index_parallelism` > 1 models the thesis' §9.1.1 what-if of a
/// parallelizable index build (the thesis treats it as single-threaded
/// because relationship analysis "might not be parallelizable").
CascadeSpec make_indexbuild_cascade(DcId master_dc, double volume_mb,
                                    unsigned index_parallelism = 1);

}  // namespace gdisim
