#include "software/replay.h"

#include <algorithm>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace gdisim {

void WorkloadTrace::record(TraceEntry entry) {
  entry.serial = next_serial_++;
  entries_.push_back(std::move(entry));
}

void WorkloadTrace::finalize() {
  std::sort(entries_.begin(), entries_.end(), [](const TraceEntry& a, const TraceEntry& b) {
    if (a.t_seconds != b.t_seconds) return a.t_seconds < b.t_seconds;
    if (a.origin != b.origin) return a.origin < b.origin;
    if (a.op != b.op) return a.op < b.op;
    return a.serial < b.serial;
  });
}

void WorkloadTrace::save(std::ostream& os) const {
  os << "t_seconds,op,origin,owner,size_mb\n";
  for (const TraceEntry& e : entries_) {
    os << e.t_seconds << ',' << e.op << ',' << e.origin << ','
       << (e.owner == kInvalidDc ? -1 : static_cast<long long>(e.owner)) << ',' << e.size_mb
       << '\n';
  }
}

WorkloadTrace WorkloadTrace::load(std::istream& is) {
  WorkloadTrace trace;
  std::string line;
  if (!std::getline(is, line)) throw std::invalid_argument("WorkloadTrace: empty stream");
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    std::string field;
    TraceEntry e;
    if (!std::getline(ls, field, ',')) throw std::invalid_argument("WorkloadTrace: bad row");
    e.t_seconds = std::stod(field);
    if (!std::getline(ls, e.op, ',')) throw std::invalid_argument("WorkloadTrace: bad row");
    if (!std::getline(ls, field, ',')) throw std::invalid_argument("WorkloadTrace: bad row");
    e.origin = static_cast<DcId>(std::stoul(field));
    if (!std::getline(ls, field, ',')) throw std::invalid_argument("WorkloadTrace: bad row");
    const long long owner = std::stoll(field);
    e.owner = owner < 0 ? kInvalidDc : static_cast<DcId>(owner);
    if (!std::getline(ls, field, ',')) throw std::invalid_argument("WorkloadTrace: bad row");
    e.size_mb = std::stod(field);
    trace.record(e);
  }
  trace.finalize();
  return trace;
}

LaunchRecorder WorkloadTrace::recorder() {
  return [this](double t_seconds, const std::string& op, DcId origin, DcId owner,
                double size_mb) {
    record(TraceEntry{t_seconds, op, origin, owner, size_mb, 0});
  };
}

TraceLauncher::TraceLauncher(const WorkloadTrace& trace, const OperationCatalog& catalog,
                             OperationContext& ctx, TickClock clock, std::uint64_t seed)
    : trace_(&trace), catalog_(&catalog), ctx_(&ctx), clock_(clock), seed_(seed) {
  set_name("replay");
  completions_.bind_owner(this);
}

void TraceLauncher::on_tick(Tick now) {
  const double t = clock_.to_seconds(now);
  const auto& entries = trace_->entries();
  while (cursor_ < entries.size() && entries[cursor_].t_seconds <= t) {
    const TraceEntry& e = entries[cursor_];

    LaunchParams params;
    params.origin_dc = e.origin;
    params.owner_dc = e.owner;
    params.size_mb = e.size_mb;
    params.instance_serial = cursor_;
    params.launcher_id = id();
    params.rng_seed = seed_ ^ (static_cast<std::uint64_t>(cursor_) * 0x9e3779b97f4a7c15ULL);

    auto instance = make_instance(e, params);
    OperationInstance* raw = instance.get();
    live_.emplace(params.instance_serial, std::move(instance));
    raw->start(now);
    ++cursor_;
  }
}

std::unique_ptr<OperationInstance> TraceLauncher::make_instance(const TraceEntry& e,
                                                                LaunchParams params) {
  return std::make_unique<OperationInstance>(
      catalog_->get(e.op), *ctx_, params, [this](OperationInstance& inst, Tick end_tick) {
        completions_.post(end_tick, id(), inst.params().instance_serial,
                          CompletionMsg{&inst, end_tick});
      });
}

void TraceLauncher::archive_state(StateArchive& ar, HandlerRegistry& reg) {
  Agent::archive_state(ar, reg);
  ar.section("trace_launcher");
  ar.size_value(cursor_);
  ar.u64(completed_);

  std::size_t nlive = live_.size();
  ar.size_value(nlive);
  if (ar.writing()) {
    std::vector<std::uint64_t> serials;
    serials.reserve(live_.size());
    for (auto& [serial, op] : live_) serials.push_back(serial);
    std::sort(serials.begin(), serials.end());
    for (std::uint64_t serial : serials) {
      std::uint64_t s = serial;
      ar.u64(s);
      OperationInstance* instance = live_.at(serial).get();
      reg.bind(id(), serial, instance);
      instance->archive_state(ar, reg);
    }
  } else {
    live_.clear();
    for (std::size_t i = 0; i < nlive; ++i) {
      std::uint64_t serial = 0;
      ar.u64(serial);
      // The serial is the cursor position the entry was launched from, so
      // every launch parameter comes straight back out of the trace.
      const TraceEntry& e = trace_->entries().at(serial);
      LaunchParams params;
      params.origin_dc = e.origin;
      params.owner_dc = e.owner;
      params.size_mb = e.size_mb;
      params.instance_serial = serial;
      params.launcher_id = id();
      params.rng_seed = seed_ ^ (serial * 0x9e3779b97f4a7c15ULL);
      auto instance = make_instance(e, params);
      reg.bind(id(), serial, instance.get());
      instance->archive_state(ar, reg);
      live_.emplace(serial, std::move(instance));
    }
  }

  completions_.archive_state(ar, [this](StateArchive& a, CompletionMsg& msg) {
    std::uint64_t serial = a.writing() ? msg.instance->params().instance_serial : 0;
    a.u64(serial);
    a.i64(msg.end_tick);
    if (a.reading()) msg.instance = live_.at(serial).get();
  });

  std::size_t nstats = stats_.size();
  ar.size_value(nstats);
  if (ar.writing()) {
    for (auto& [name, s] : stats_) {
      std::string key = name;
      ar.str(key);
      s.archive_state(ar);
    }
  } else {
    stats_.clear();
    for (std::size_t i = 0; i < nstats; ++i) {
      std::string key;
      ar.str(key);
      stats_[key].archive_state(ar);
    }
  }
}

void TraceLauncher::on_interactions(Tick now) {
  for (auto& d : completions_.drain_visible(now)) {
    const CompletionMsg& msg = d.payload;
    stats_[msg.instance->op_name()].record(msg.instance->duration_seconds(clock_, msg.end_tick));
    ++completed_;
    live_.erase(msg.instance->params().instance_serial);
  }
}

}  // namespace gdisim
