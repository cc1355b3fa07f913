// Message cascades (thesis §3.5.2, Figures 3-11/3-12, 5-2..5-5).
//
// An operation is a collection of sequential *steps*; each step contains one
// or more *branches* that run in parallel (the pull phases of SYNCHREP, the
// fan-out of INDEXBUILD); each branch is a *sequence* of messages executed
// strictly in order. A message names its endpoint holon roles — the concrete
// data center, tier and server instance are resolved at run time by the
// simulator based on workload and load-balancing policy, exactly as §3.5.2
// prescribes.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/archive.h"
#include "core/rng.h"
#include "hardware/datacenter.h"
#include "software/resource.h"

namespace gdisim {

enum class Role : unsigned {
  Client,      ///< the launching client (or daemon process)
  AppServer,   ///< T_app
  DbServer,    ///< T_db
  FileServer,  ///< T_fs
  IdxServer,   ///< T_idx
};

/// Which data center hosts the endpoint.
enum class DcSelector : unsigned {
  Local,     ///< the operation's origin data center
  Owner,     ///< the data center owning the file/metadata (Ch. 7); in a
             ///< single-master infrastructure this is always the MDC
  Explicit,  ///< a fixed data center (used by daemon-built cascades)
};

struct Endpoint {
  Role role = Role::Client;
  DcSelector dc = DcSelector::Local;
  DcId explicit_dc = kInvalidDc;

  static Endpoint client() { return {Role::Client, DcSelector::Local, kInvalidDc}; }
  static Endpoint app_owner() { return {Role::AppServer, DcSelector::Owner, kInvalidDc}; }
  static Endpoint db_owner() { return {Role::DbServer, DcSelector::Owner, kInvalidDc}; }
  static Endpoint idx_owner() { return {Role::IdxServer, DcSelector::Owner, kInvalidDc}; }
  static Endpoint fs_local() { return {Role::FileServer, DcSelector::Local, kInvalidDc}; }
  static Endpoint at(Role role, DcId dc) { return {role, DcSelector::Explicit, dc}; }
};

struct MessageSpec {
  Endpoint from;
  Endpoint to;
  ResourceVector fixed;
  ResourceVector per_mb;
  /// When set, overrides the launch-level size for this message (used by
  /// daemon cascades whose branches move different volumes).
  std::optional<double> size_mb_override;
  /// Cores the destination CPU stage may fork across (thesis §9.1.1).
  unsigned cpu_parallelism = 1;
};

struct Sequence {
  std::vector<MessageSpec> messages;
};

struct Step {
  std::vector<Sequence> branches;
  /// The step is executed this many times back-to-back (the xN multipliers
  /// in the thesis cascade figures).
  unsigned repeat = 1;
};

struct CascadeSpec {
  std::string name;
  std::vector<Step> steps;
  /// Cached stable_hash(name) so hot launch paths never re-hash the string;
  /// 0 means "not sealed yet" and readers fall back to hashing on demand.
  std::uint64_t name_hash = 0;  // ARCHIVE-TRANSIENT: derived from name, recomputed on read
  /// Dense catalog id (assigned by OperationCatalog::add); launchers index
  /// per-operation statistics tables by this instead of by name.
  std::uint32_t op_id = 0;  // ARCHIVE-TRANSIENT: catalog wiring; archived specs are daemon-built

  std::size_t total_messages() const {
    std::size_t n = 0;
    for (const auto& s : steps) {
      std::size_t per = 0;
      for (const auto& b : s.branches) per += b.messages.size();
      n += per * s.repeat;
    }
    return n;
  }
};

/// Full snapshot round trip of a dynamically-built cascade (background
/// daemons synthesize their specs at launch time, so a restored run cannot
/// look its spec up in any catalog).
inline void archive_resource_vector(StateArchive& ar, ResourceVector& r) {
  ar.f64(r.cpu_cycles);
  ar.f64(r.net_bytes);
  ar.f64(r.mem_bytes);
  ar.f64(r.disk_bytes);
}

inline void archive_endpoint(StateArchive& ar, Endpoint& ep) {
  std::uint8_t role = static_cast<std::uint8_t>(ep.role);
  ar.u8(role);
  ep.role = static_cast<Role>(role);
  std::uint8_t dc = static_cast<std::uint8_t>(ep.dc);
  ar.u8(dc);
  ep.dc = static_cast<DcSelector>(dc);
  ar.u32(ep.explicit_dc);
}

inline void archive_cascade_spec(StateArchive& ar, CascadeSpec& spec) {
  ar.section("cascade");
  ar.str(spec.name);
  if (ar.reading()) spec.name_hash = stable_hash(spec.name);
  std::size_t nsteps = spec.steps.size();
  ar.size_value(nsteps);
  if (ar.reading()) spec.steps.resize(nsteps);
  for (Step& step : spec.steps) {
    ar.u32(step.repeat);
    std::size_t nbranches = step.branches.size();
    ar.size_value(nbranches);
    if (ar.reading()) step.branches.resize(nbranches);
    for (Sequence& seq : step.branches) {
      std::size_t nmsgs = seq.messages.size();
      ar.size_value(nmsgs);
      if (ar.reading()) seq.messages.resize(nmsgs);
      for (MessageSpec& m : seq.messages) {
        archive_endpoint(ar, m.from);
        archive_endpoint(ar, m.to);
        archive_resource_vector(ar, m.fixed);
        archive_resource_vector(ar, m.per_mb);
        bool has_override = m.size_mb_override.has_value();
        ar.boolean(has_override);
        if (has_override) {
          double v = ar.writing() ? *m.size_mb_override : 0.0;
          ar.f64(v);
          if (ar.reading()) m.size_mb_override = v;
        } else if (ar.reading()) {
          m.size_mb_override.reset();
        }
        ar.u32(m.cpu_parallelism);
      }
    }
  }
}

/// Fluent builder for the common single-branch cascade shapes.
class CascadeBuilder {
 public:
  explicit CascadeBuilder(std::string name) { spec_.name = std::move(name); }

  /// Starts a new sequential step with one branch, repeated `repeat` times.
  CascadeBuilder& step(unsigned repeat = 1) {
    spec_.steps.push_back(Step{{Sequence{}}, repeat});
    return *this;
  }

  /// Adds a message to the last branch of the current step.
  CascadeBuilder& msg(Endpoint from, Endpoint to, ResourceVector fixed,
                      ResourceVector per_mb = {}) {
    if (spec_.steps.empty()) step();
    spec_.steps.back().branches.back().messages.push_back(
        MessageSpec{from, to, fixed, per_mb, std::nullopt, 1});
    return *this;
  }

  /// Sets the CPU parallelism of the most recently added message.
  CascadeBuilder& spec_last_parallelism(unsigned cores) {
    spec_.steps.back().branches.back().messages.back().cpu_parallelism = cores;
    return *this;
  }

  /// Sets the per-MB cost of the most recently added message.
  CascadeBuilder& spec_last_per_mb(ResourceVector per_mb) {
    spec_.steps.back().branches.back().messages.back().per_mb = per_mb;
    return *this;
  }

  /// Opens an additional parallel branch in the current step.
  CascadeBuilder& branch() {
    if (spec_.steps.empty()) step();
    spec_.steps.back().branches.push_back(Sequence{});
    return *this;
  }

  CascadeSpec build() {
    spec_.name_hash = stable_hash(spec_.name);
    return std::move(spec_);
  }

 private:
  CascadeSpec spec_;
};

}  // namespace gdisim
