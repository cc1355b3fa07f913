#include "software/replay.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <system_error>

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

namespace {

/// Shortest text that reads back as exactly `v`.
void put_double(std::ostream& os, double v) {
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  os.write(buf, end - buf);
}

[[noreturn]] void bad_field(int line, const char* field, std::string_view text) {
  throw std::invalid_argument("line " + std::to_string(line) + ": " + field + ": bad value '" +
                              std::string(text) + "'");
}

/// The whole field as a finite number >= 0.
double non_negative(int line, const char* field, std::string_view text) {
  double v = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || ptr != end || !std::isfinite(v) || v < 0.0) {
    bad_field(line, field, text);
  }
  return v;
}

/// The whole field as a data center id.
DcId dc_id(int line, const char* field, std::string_view text) {
  DcId v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || ptr != end || v == kInvalidDc) bad_field(line, field, text);
  return v;
}

}  // namespace

void WorkloadTrace::save(std::ostream& os) const {
  os << "t_seconds,op,origin,owner,size_mb\n";
  for (const TraceEntry& e : entries_) {
    put_double(os, e.t_seconds);
    os << ',' << e.op << ',' << e.origin << ','
       << (e.owner == kInvalidDc ? -1 : static_cast<long long>(e.owner)) << ',';
    put_double(os, e.size_mb);
    os << '\n';
  }
}

WorkloadTrace WorkloadTrace::load(std::istream& is) {
  WorkloadTrace trace;
  std::string text;
  if (!std::getline(is, text)) throw std::invalid_argument("WorkloadTrace: empty stream");
  int line = 1;
  std::vector<std::string_view> fields;
  while (std::getline(is, text)) {
    ++line;
    if (text.empty()) continue;
    fields.clear();
    for (std::size_t from = 0;;) {
      const std::size_t comma = text.find(',', from);
      fields.emplace_back(text.data() + from,
                          (comma == std::string::npos ? text.size() : comma) - from);
      if (comma == std::string::npos) break;
      from = comma + 1;
    }
    if (fields.size() != 5) {
      throw std::invalid_argument("line " + std::to_string(line) + ": expected 5 fields, got " +
                                  std::to_string(fields.size()));
    }
    TraceEntry e;
    e.t_seconds = non_negative(line, "t_seconds", fields[0]);
    if (fields[1].empty()) bad_field(line, "op", fields[1]);
    e.op = fields[1];
    e.origin = dc_id(line, "origin", fields[2]);
    e.owner = fields[3] == "-1" ? kInvalidDc : dc_id(line, "owner", fields[3]);
    e.size_mb = non_negative(line, "size_mb", fields[4]);
    trace.record(std::move(e));
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
    : trace_(&trace), catalog_(&catalog), clock_(clock), ops_(*this, ctx, seed, &catalog) {
  set_name("replay");
  const std::size_t dcs = ctx.topology().dc_count();
  const auto& entries = trace.entries();
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const TraceEntry& e = entries[i];
    const auto reject = [&](const std::string& why) {
      std::ostringstream at;
      at << "TraceLauncher: entry " << i << " (" << e.op << " at " << e.t_seconds << " s): " << why;
      throw std::invalid_argument(at.str());
    };
    const auto check_dc = [&](const char* field, DcId dc) {
      if (dc >= dcs) {
        reject(std::string(field) + " " + std::to_string(dc) + " is not one of the topology's " +
               std::to_string(dcs) + " data centers");
      }
    };
    check_dc("origin", e.origin);
    if (e.owner != kInvalidDc) check_dc("owner", e.owner);
    if (!catalog.contains(e.op)) reject("operation '" + e.op + "' is not in the catalog");
  }
  op_stats_.init(catalog, /*with_binned=*/false);
}

void TraceLauncher::on_tick(Tick now) {
  const double t = clock_.to_seconds(now);
  const auto& entries = trace_->entries();
  while (launched() < entries.size() && entries[launched()].t_seconds <= t) {
    const TraceEntry& e = entries[launched()];
    LaunchParams params;
    params.origin_dc = e.origin;
    params.owner_dc = e.owner;
    params.size_mb = e.size_mb;
    ops_.launch(catalog_->get(e.op), params, {}, now);
  }
}

void TraceLauncher::archive_state(StateArchive& ar, HandlerRegistry& reg) {
  Agent::archive_state(ar, reg);
  ar.section("trace_launcher");
  ops_.archive_state(ar, reg, [](StateArchive&, std::monostate&) {});
  op_stats_.archive_state(ar);
}

void TraceLauncher::on_interactions(Tick now) {
  ops_.drain(now, [this](const OperationInstance& inst, std::monostate, Tick end_tick) {
    op_stats_.record(inst.op_id(), inst.duration_seconds(clock_, end_tick));
  });
}

}  // namespace gdisim
