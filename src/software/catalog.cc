#include "software/catalog.h"

#include <stdexcept>

namespace gdisim {

namespace {

// Client machines are nominally 2.4 GHz (hardware/datacenter.h); client-side
// work is specified here in seconds and converted to cycles.
constexpr double kClientHz = 2.4e9;

double client_s(double seconds) { return seconds * kClientHz; }

/// Request message client -> app server with the given app CPU seconds
/// (at the reference 2.5 GHz server core) and small metadata payload.
ResourceVector app_work(double cpu_seconds, double net_kb = 30.0, double mem_mb = 5.0,
                        double disk_kb = 0.0) {
  return {cpu_seconds * 2.5e9, net_kb * KB, mem_mb * MB, disk_kb * KB};
}

/// Response message server -> client with the given *client* CPU seconds.
ResourceVector client_work(double cpu_seconds, double net_kb = 80.0, double disk_kb = 0.0) {
  return {client_s(cpu_seconds), net_kb * KB, 0.0, disk_kb * KB};
}

/// A client <-> app round trip: request processed at the app tier, response
/// processed at the client.
void round_trip(CascadeBuilder& b, double app_cpu_s, double client_cpu_s,
                double req_kb = 30.0, double resp_kb = 80.0) {
  b.msg(Endpoint::client(), Endpoint::app_owner(), app_work(app_cpu_s, req_kb));
  b.msg(Endpoint::app_owner(), Endpoint::client(), client_work(client_cpu_s, resp_kb));
}

/// A client -> app -> {db|idx} -> app -> client metadata interaction.
void tiered_trip(CascadeBuilder& b, Endpoint mid, double app_cpu_s, double mid_cpu_s,
                 double client_cpu_s, double mid_disk_kb = 64.0) {
  b.msg(Endpoint::client(), Endpoint::app_owner(), app_work(app_cpu_s));
  b.msg(Endpoint::app_owner(), mid,
        ResourceVector{mid_cpu_s * 2.5e9, 24.0 * KB, 8.0 * MB, mid_disk_kb * KB});
  b.msg(mid, Endpoint::app_owner(), app_work(app_cpu_s * 0.5, 48.0));
  b.msg(Endpoint::app_owner(), Endpoint::client(), client_work(client_cpu_s, 40.0));
}

CascadeSpec cad_login() {
  CascadeBuilder b("CAD.LOGIN");
  b.step(2);
  round_trip(b, 0.75, 0.30);
  return b.build();
}

CascadeSpec cad_text_search() {
  // Queries the text index file hosted by T_app (thesis §5.2.2 op 2).
  CascadeBuilder b("CAD.TEXT-SEARCH");
  b.step(2);
  round_trip(b, 2.20, 0.50, 40.0, 120.0);
  return b.build();
}

CascadeSpec cad_filter() {
  CascadeBuilder b("CAD.FILTER");
  b.step(2);
  round_trip(b, 1.10, 0.30, 40.0, 100.0);
  return b.build();
}

CascadeSpec cad_explore() {
  CascadeBuilder b("CAD.EXPLORE");
  b.step(13);
  tiered_trip(b, Endpoint::db_owner(), 0.10, 0.20, 0.10);
  return b.build();
}

CascadeSpec cad_spatial_search() {
  CascadeBuilder b("CAD.SPATIAL-SEARCH");
  b.step(14);
  tiered_trip(b, Endpoint::idx_owner(), 0.10, 0.25, 0.45, 256.0);
  return b.build();
}

CascadeSpec cad_select() {
  CascadeBuilder b("CAD.SELECT");
  b.step(7);
  tiered_trip(b, Endpoint::db_owner(), 0.30, 0.30, 0.12);
  return b.build();
}

/// File transfer costs per MB shared by OPEN and SAVE. Client-side
/// processing (parsing/rendering CAD geometry) dominates, per the Ch. 5
/// observation that metadata operations are size-invariant while OPEN/SAVE
/// scale with the file.
struct TransferCost {
  double fs_cpu_s_per_mb;
  double fs_disk_mb_per_mb;
  double client_s_per_mb;
};

void file_transfer(CascadeBuilder& b, const TransferCost& t, bool upload) {
  if (upload) {
    // Client pushes the file: fs-side CPU + disk write on the request; a
    // small acknowledgement returns.
    b.msg(Endpoint::client(), Endpoint::fs_local(),
          ResourceVector{client_s(0.02), 16.0 * KB, 4.0 * MB, 0.0});
    b.spec_last_per_mb({t.fs_cpu_s_per_mb * 2.5e9, 1.0 * MB, 0.2 * MB, t.fs_disk_mb_per_mb * MB});
    b.msg(Endpoint::fs_local(), Endpoint::client(), client_work(0.05, 16.0));
    b.spec_last_per_mb({client_s(t.client_s_per_mb), 0.0, 0.0, 0.0});
  } else {
    // Token-less request, then the download whose payload and client-side
    // processing scale with the file size.
    b.msg(Endpoint::client(), Endpoint::fs_local(),
          ResourceVector{0.05 * 2.5e9, 16.0 * KB, 4.0 * MB, 0.0});
    b.spec_last_per_mb({t.fs_cpu_s_per_mb * 2.5e9, 0.0, 0.2 * MB, t.fs_disk_mb_per_mb * MB});
    b.msg(Endpoint::fs_local(), Endpoint::client(), client_work(0.05, 32.0));
    b.spec_last_per_mb({client_s(t.client_s_per_mb), 1.0 * MB, 0.0, 0.02 * MB});
  }
}

void token_trip(CascadeBuilder& b) {
  // OPEN/SAVE segment (1): obtain the file token and verify freshness in
  // T_db via T_app (thesis Figure 3-11).
  b.msg(Endpoint::client(), Endpoint::app_owner(), app_work(0.50));
  b.msg(Endpoint::app_owner(), Endpoint::db_owner(),
        ResourceVector{0.90 * 2.5e9, 24.0 * KB, 12.0 * MB, 3096.0 * KB});
  b.msg(Endpoint::db_owner(), Endpoint::app_owner(), app_work(0.28, 48.0));
  b.msg(Endpoint::app_owner(), Endpoint::client(), client_work(0.20, 40.0));
}

CascadeSpec cad_open() {
  CascadeBuilder b("CAD.OPEN");
  b.step();
  token_trip(b);
  b.step();
  file_transfer(b, TransferCost{0.070, 1.0, 1.00}, /*upload=*/false);
  return b.build();
}

CascadeSpec cad_save() {
  // ~20% more expensive than OPEN (thesis §5.2.3); the extra fixed cost is
  // client-side preparation (serialize/compress) before the upload.
  CascadeBuilder b("CAD.SAVE");
  b.step();
  token_trip(b);
  b.step();
  b.msg(Endpoint::app_owner(), Endpoint::client(), client_work(2.30, 16.0));
  b.step();
  file_transfer(b, TransferCost{0.088, 1.2, 1.15}, /*upload=*/true);
  return b.build();
}

/// VIS operations reuse the CAD cascades; only the R arrays differ
/// (thesis §6.3.2: "identical to the CAD operations ... the volume of the
/// data manipulated during file opening and saving is considerably
/// smaller"). The size difference comes from launch-time size_mb; the
/// lighter interactive costs are reflected here.
CascadeSpec vis_variant(const CascadeSpec& cad, const std::string& name, double cost_scale) {
  CascadeSpec out = cad;
  out.name = name;
  out.name_hash = stable_hash(name);  // the copy carries CAD's cached hash
  for (auto& step : out.steps) {
    for (auto& branch : step.branches) {
      for (auto& m : branch.messages) {
        m.fixed = m.fixed * cost_scale;
        m.per_mb = m.per_mb * cost_scale;
      }
    }
  }
  return out;
}

CascadeSpec vis_validate() {
  CascadeBuilder b("VIS.VALIDATE");
  b.step(4);
  tiered_trip(b, Endpoint::db_owner(), 0.04, 0.22, 0.16);
  return b.build();
}

/// PDM operations: long sequences of database transactions via T_app
/// (thesis §6.4.2).
CascadeSpec pdm_op(const std::string& name, unsigned db_trips, double db_cpu_s,
                   double transfer_scale = 0.0) {
  CascadeBuilder b(name);
  b.step(db_trips);
  tiered_trip(b, Endpoint::db_owner(), 0.04, db_cpu_s, 0.10);
  if (transfer_scale > 0.0) {
    b.step();
    b.msg(Endpoint::client(), Endpoint::fs_local(),
          ResourceVector{0.04 * 2.5e9, 16.0 * KB, 4.0 * MB, 0.0});
    b.spec_last_per_mb({0.05 * 2.5e9 * transfer_scale, 0.0, 0.0, transfer_scale * MB});
    b.msg(Endpoint::fs_local(), Endpoint::client(), client_work(0.05, 32.0));
    b.spec_last_per_mb({client_s(0.25 * transfer_scale), transfer_scale * MB, 0.0, 0.0});
  }
  return b.build();
}

}  // namespace

OperationCatalog OperationCatalog::standard() {
  OperationCatalog c;
  const CascadeSpec login = cad_login();
  const CascadeSpec text = cad_text_search();
  const CascadeSpec filter = cad_filter();
  const CascadeSpec explore = cad_explore();
  const CascadeSpec spatial = cad_spatial_search();
  const CascadeSpec select = cad_select();
  const CascadeSpec open = cad_open();
  const CascadeSpec save = cad_save();

  c.add(login);
  c.add(text);
  c.add(filter);
  c.add(explore);
  c.add(spatial);
  c.add(select);
  c.add(open);
  c.add(save);

  // VIS: same shapes, lighter interactive cost, much smaller files.
  c.add(vis_variant(login, "VIS.LOGIN", 0.8));
  c.add(vis_variant(text, "VIS.TEXT-SEARCH", 0.7));
  c.add(vis_variant(filter, "VIS.FILTER", 0.7));
  c.add(vis_variant(explore, "VIS.EXPLORE", 0.8));
  c.add(vis_variant(spatial, "VIS.SPATIAL-SEARCH", 0.8));
  c.add(vis_variant(select, "VIS.SELECT", 0.8));
  c.add(vis_variant(open, "VIS.OPEN", 0.9));
  c.add(vis_variant(save, "VIS.SAVE", 0.9));
  c.add(vis_validate());

  c.add(pdm_op("PDM.BILL-OF-MATERIALS", 10, 0.30));
  c.add(pdm_op("PDM.EXPAND", 8, 0.28));
  c.add(pdm_op("PDM.PROMOTE", 6, 0.32));
  c.add(pdm_op("PDM.UPDATE", 4, 0.35));
  c.add(pdm_op("PDM.EDIT", 4, 0.30));
  c.add(pdm_op("PDM.DOWNLOAD", 2, 0.20, /*transfer_scale=*/1.0));
  c.add(pdm_op("PDM.EXPORT", 3, 0.25, /*transfer_scale=*/0.5));
  return c;
}

void OperationCatalog::add(CascadeSpec spec) {
  // Always recompute: a spec derived by copy-and-rename (e.g. the VIS
  // variants of the CAD cascades) would otherwise carry the source's hash.
  spec.name_hash = stable_hash(spec.name);
  auto it = ops_.find(spec.name);
  if (it == ops_.end()) {
    spec.op_id = static_cast<std::uint32_t>(by_id_.size());
    it = ops_.emplace(spec.name, std::move(spec)).first;
    by_id_.push_back(&it->second);
  } else {
    // Replacing an existing op keeps its dense id so launcher stats tables
    // built against the old catalog stay index-compatible.
    spec.op_id = it->second.op_id;
    it->second = std::move(spec);
    by_id_[it->second.op_id] = &it->second;
  }
}

const CascadeSpec& OperationCatalog::get(const std::string& name) const {
  auto it = ops_.find(name);
  if (it == ops_.end()) throw std::out_of_range("OperationCatalog: unknown op " + name);
  return it->second;
}

std::vector<std::string> OperationCatalog::operations_of(const std::string& app) const {
  std::vector<std::string> out;
  const std::string prefix = app + ".";
  for (const auto& [name, spec] : ops_) {
    if (name.rfind(prefix, 0) == 0) out.push_back(name);
  }
  return out;
}

CascadeSpec make_synchrep_cascade(DcId master_dc,
                                  const std::vector<std::pair<DcId, double>>& pull_mb,
                                  const std::vector<std::pair<DcId, double>>& push_mb) {
  CascadeSpec spec;
  spec.name = "BG.SYNCHREP";
  const Endpoint app_m = Endpoint::at(Role::AppServer, master_dc);
  const Endpoint db_m = Endpoint::at(Role::DbServer, master_dc);
  const Endpoint fs_m = Endpoint::at(Role::FileServer, master_dc);
  const Endpoint daemon{Role::Client, DcSelector::Explicit, master_dc};

  // Pull phase: parallel branches, one per source data center.
  Step pull;
  for (const auto& [dc, mb] : pull_mb) {
    Sequence s;
    // Daemon asks the db (via app) for the modified file list.
    s.messages.push_back(MessageSpec{daemon, app_m, ResourceVector{0.05 * 2.5e9, 16 * KB, 4 * MB, 0}, {}, std::nullopt});
    s.messages.push_back(MessageSpec{app_m, db_m, ResourceVector{0.20 * 2.5e9, 24 * KB, 8 * MB, 512 * KB}, {}, std::nullopt});
    s.messages.push_back(MessageSpec{db_m, app_m, ResourceVector{0.05 * 2.5e9, 24 * KB, 4 * MB, 0}, {}, std::nullopt});
    // Bulk copy: remote fs -> master fs. Work scales with the branch volume.
    MessageSpec bulk{Endpoint::at(Role::FileServer, dc), fs_m,
                     ResourceVector{0.02 * 2.5e9, 64 * KB, 8 * MB, 0},
                     ResourceVector{0.01 * 2.5e9, 1.0 * MB, 0.05 * MB, 1.0 * MB},
                     mb};
    s.messages.push_back(bulk);
    // Registration of received versions.
    s.messages.push_back(MessageSpec{fs_m, db_m, ResourceVector{0.10 * 2.5e9, 32 * KB, 4 * MB, 256 * KB}, {}, std::nullopt});
    s.messages.push_back(MessageSpec{db_m, daemon, ResourceVector{0, 16 * KB, 0, 0}, {}, std::nullopt});
    pull.branches.push_back(std::move(s));
  }
  if (!pull.branches.empty()) spec.steps.push_back(std::move(pull));

  // Push phase: parallel branches, one per destination data center.
  Step push;
  for (const auto& [dc, mb] : push_mb) {
    Sequence s;
    s.messages.push_back(MessageSpec{daemon, db_m, ResourceVector{0.10 * 2.5e9, 16 * KB, 4 * MB, 256 * KB}, {}, std::nullopt});
    MessageSpec bulk{fs_m, Endpoint::at(Role::FileServer, dc),
                     ResourceVector{0.02 * 2.5e9, 64 * KB, 8 * MB, 0},
                     ResourceVector{0.01 * 2.5e9, 1.0 * MB, 0.05 * MB, 1.0 * MB},
                     mb};
    s.messages.push_back(bulk);
    s.messages.push_back(MessageSpec{Endpoint::at(Role::FileServer, dc), db_m,
                                     ResourceVector{0.05 * 2.5e9, 32 * KB, 4 * MB, 128 * KB}, {},
                                     std::nullopt});
    s.messages.push_back(MessageSpec{db_m, daemon, ResourceVector{0, 16 * KB, 0, 0}, {}, std::nullopt});
    push.branches.push_back(std::move(s));
  }
  if (!push.branches.empty()) spec.steps.push_back(std::move(push));

  if (spec.steps.empty()) {
    // Nothing to move: a single daemon<->db heartbeat keeps duration small
    // but nonzero.
    Step s;
    Sequence seq;
    seq.messages.push_back(MessageSpec{daemon, db_m, ResourceVector{0.02 * 2.5e9, 8 * KB, 1 * MB, 0}, {}, std::nullopt});
    seq.messages.push_back(MessageSpec{db_m, daemon, ResourceVector{0, 8 * KB, 0, 0}, {}, std::nullopt});
    s.branches.push_back(std::move(seq));
    spec.steps.push_back(std::move(s));
  }
  return spec;
}

CascadeSpec make_indexbuild_cascade(DcId master_dc, double volume_mb,
                                    unsigned index_parallelism) {
  CascadeSpec spec;
  spec.name = "BG.INDEXBUILD";
  const Endpoint fs_m = Endpoint::at(Role::FileServer, master_dc);
  const Endpoint idx_m = Endpoint::at(Role::IdxServer, master_dc);
  const Endpoint db_m = Endpoint::at(Role::DbServer, master_dc);
  const Endpoint daemon{Role::Client, DcSelector::Explicit, master_dc};

  Step s;
  Sequence seq;
  seq.messages.push_back(MessageSpec{daemon, db_m, ResourceVector{0.10 * 2.5e9, 16 * KB, 4 * MB, 256 * KB}, {}, std::nullopt});
  // Flagged files stream from fs into the index tier; indexing is CPU-heavy
  // (relationship analysis + snapshot generation) and hard to parallelize.
  seq.messages.push_back(MessageSpec{db_m, fs_m, ResourceVector{0.05 * 2.5e9, 16 * KB, 4 * MB, 0},
                                     ResourceVector{0, 0, 0, 0.2 * MB}, volume_mb});
  seq.messages.push_back(MessageSpec{fs_m, idx_m,
                                     ResourceVector{0.10 * 2.5e9, 64 * KB, 16 * MB, 0},
                                     ResourceVector{1.80 * 2.5e9, 1.0 * MB, 0.1 * MB, 0.4 * MB},
                                     volume_mb, index_parallelism});
  seq.messages.push_back(MessageSpec{idx_m, db_m, ResourceVector{0.10 * 2.5e9, 64 * KB, 4 * MB, 512 * KB}, {}, std::nullopt});
  seq.messages.push_back(MessageSpec{db_m, daemon, ResourceVector{0, 16 * KB, 0, 0}, {}, std::nullopt});
  s.branches.push_back(std::move(seq));
  spec.steps.push_back(std::move(s));
  return spec;
}

}  // namespace gdisim
