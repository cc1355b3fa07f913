#include "config/loader.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <istream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <system_error>
#include <utility>
#include <vector>

#include "software/catalog.h"

namespace gdisim {

namespace {

struct Line {
  std::string source;  ///< file path (or "<stream>") for error messages
  int number = 0;
  std::vector<std::string> tokens;
};

/// Errors carry "<source>:<line>: ..." so editors can jump straight to the
/// offending spot; every message quotes the token that caused it.
[[noreturn]] void fail(const std::string& source, int line, const std::string& why) {
  throw std::invalid_argument(source + ":" + std::to_string(line) + ": " + why);
}

[[noreturn]] void fail(const Line& line, const std::string& why) {
  fail(line.source, line.number, why);
}

/// The whole token as a finite number: no trailing junk such as a unit
/// suffix, no nan or inf.
double to_double(const Line& line, std::size_t idx) {
  const std::string& tok = line.tokens.at(idx);
  double v = 0.0;
  const char* end = tok.data() + tok.size();
  const auto [ptr, ec] = std::from_chars(tok.data(), end, v);
  if (ec != std::errc() || ptr != end || !std::isfinite(v)) {
    fail(line, "expected a number, got '" + tok + "'");
  }
  return v;
}

/// The whole token as a non-negative integer that fits in T.
template <typename T>
T to_integer(const Line& line, std::size_t idx) {
  const std::string& tok = line.tokens.at(idx);
  T v{};
  const char* end = tok.data() + tok.size();
  const auto [ptr, ec] = std::from_chars(tok.data(), end, v);
  if (ec != std::errc() || ptr != end) {
    fail(line, "expected a non-negative integer, got '" + tok + "'");
  }
  return v;
}

/// A number the directive constrains: `ok` tests it, and `rule` states the
/// constraint in the message ("tick must be > 0, got '-1'").
template <typename Ok>
double checked(const Line& line, std::size_t idx, const std::string& what, const char* rule,
               Ok ok) {
  const double v = to_double(line, idx);
  if (!ok(v)) fail(line, what + " must be " + rule + ", got '" + line.tokens[idx] + "'");
  return v;
}

double positive(const Line& line, std::size_t idx, const std::string& what) {
  return checked(line, idx, what, "> 0", [](double v) { return v > 0.0; });
}

double non_negative(const Line& line, std::size_t idx, const std::string& what) {
  return checked(line, idx, what, ">= 0", [](double v) { return v >= 0.0; });
}

double hour_of_day(const Line& line, std::size_t idx) {
  return checked(line, idx, "hour", "in [0, 24]", [](double v) { return v >= 0.0 && v <= 24.0; });
}

/// A count of hardware units: an integer >= 1.
unsigned count(const Line& line, std::size_t idx, const std::string& what) {
  const unsigned v = to_integer<unsigned>(line, idx);
  if (v == 0) fail(line, what + " must be >= 1, got '" + line.tokens[idx] + "'");
  return v;
}

void expect_argc(const Line& line, std::size_t n) {
  if (line.tokens.size() != n) {
    fail(line, "expected " + std::to_string(n - 1) + " argument(s) after '" +
                   line.tokens[0] + "'");
  }
}

TierKind parse_tier_kind(const Line& line, const std::string& s) {
  if (s == "app") return TierKind::App;
  if (s == "db") return TierKind::Db;
  if (s == "fs") return TierKind::Fs;
  if (s == "idx") return TierKind::Idx;
  fail(line, "unknown tier kind '" + s + "' (app|db|fs|idx)");
}

std::vector<Line> tokenize(std::istream& is, const std::string& source) {
  std::vector<Line> lines;
  std::string raw;
  int number = 0;
  while (std::getline(is, raw)) {
    ++number;
    if (const auto hash = raw.find('#'); hash != std::string::npos) raw.resize(hash);
    std::istringstream ls(raw);
    Line line;
    line.source = source;
    line.number = number;
    std::string token;
    while (ls >> token) line.tokens.push_back(token);
    if (!line.tokens.empty()) lines.push_back(std::move(line));
  }
  return lines;
}

std::string number(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

/// What a run would otherwise discover mid-flight: every message of `spec`,
/// launched from `origin`, must resolve to a tier and have a route. Fails at
/// `line`, naming `who`.
void require_resolvable(OperationContext& ctx, const CascadeSpec& spec, DcId origin,
                        const std::string& source, int line, const std::string& who) {
  try {
    for (const Step& step : spec.steps) {
      for (const Sequence& seq : step.branches) {
        for (const MessageSpec& msg : seq.messages) {
          const DcId from = ctx.resolve(msg.from, origin, kInvalidDc, 0).dc;
          const DcId to = ctx.resolve(msg.to, origin, kInvalidDc, 0).dc;
          ctx.topology().route(from, to);
        }
      }
    }
  } catch (const std::logic_error& e) {
    fail(source, line, who + " cannot run: " + e.what());
  }
}

struct PopulationDecl {
  ClientPopulationConfig cfg;
  std::string dc_name;
  std::string app;
  double peak = 0.0;
  std::optional<std::pair<double, double>> hours;
  int line = 0;
};

struct DaemonDecl {
  std::string dc;
  double seconds = 0.0;
  int line = 0;
};

struct GrowthDecl {
  std::string dc;
  double peak_mb_per_hour = 0.0;
  std::optional<std::pair<double, double>> hours;
};

}  // namespace

Scenario load_scenario(std::istream& is, const std::string& source, double scale) {
  if (!(scale > 0.0)) {
    throw std::invalid_argument(source + ": scale override must be > 0, got " +
                                std::to_string(scale));
  }
  const std::vector<Line> lines = tokenize(is, source);

  double tick = 0.02;
  std::uint64_t seed = 42;
  std::string master;
  InfrastructureBuilder builder(seed);
  std::vector<PopulationDecl> populations;
  std::vector<DaemonDecl> synchreps, indexbuilds;
  std::vector<GrowthDecl> growths;
  std::vector<std::string> dc_names;  // declared so far, in order
  std::map<std::pair<std::string, std::string>, int> link_lines;  // unordered pair -> line
  // (line, token index) of datacenter names resolved once parsing is done.
  std::vector<std::pair<const Line*, std::size_t>> dc_refs;
  auto declared = [&dc_names](const std::string& name) {
    return std::find(dc_names.begin(), dc_names.end(), name) != dc_names.end();
  };

  std::size_t i = 0;
  auto at_end = [&] { return i >= lines.size(); };

  while (!at_end()) {
    const Line& line = lines[i];
    const std::string& head = line.tokens[0];

    if (head == "tick") {
      expect_argc(line, 2);
      tick = positive(line, 1, "tick");
      ++i;
    } else if (head == "seed") {
      expect_argc(line, 2);
      seed = to_integer<std::uint64_t>(line, 1);
      ++i;
    } else if (head == "master") {
      expect_argc(line, 2);
      master = line.tokens[1];
      dc_refs.emplace_back(&line, 1);
      ++i;
    } else if (head == "datacenter") {
      expect_argc(line, 2);
      DataCenterBlueprint bp;
      bp.name = line.tokens[1];
      ++i;
      bool closed = false;
      while (!at_end()) {
        const Line& sub = lines[i];
        const std::string& key = sub.tokens[0];
        if (key == "end") {
          closed = true;
          ++i;
          break;
        } else if (key == "switch") {
          expect_argc(sub, 2);
          bp.switch_gbps = positive(sub, 1, "switch bandwidth");
        } else if (key == "san") {
          expect_argc(sub, 4);
          bp.san = SanNotation{count(sub, 1, "san controllers"), count(sub, 2, "san disks"),
                               positive(sub, 3, "san rpm")};
        } else if (key == "tier") {
          expect_argc(sub, 5);
          const TierKind kind = parse_tier_kind(sub, sub.tokens[1]);
          bp.tiers[kind] = TierNotation{count(sub, 2, "tier servers"), count(sub, 3, "tier cores"),
                                        positive(sub, 4, "tier memory")};
        } else if (key == "tier_link") {
          expect_argc(sub, 3);
          bp.tier_link = LinkNotation{positive(sub, 1, "tier_link bandwidth"),
                                      non_negative(sub, 2, "tier_link latency"), 1.0};
        } else {
          fail(sub, "unknown datacenter directive '" + key + "'");
        }
        ++i;
      }
      if (!closed) fail(line, "datacenter block not closed with 'end'");
      builder.add_datacenter(bp);
      dc_names.push_back(bp.name);
    } else if (head == "link" || head == "backup_link") {
      if (line.tokens.size() < 5 || line.tokens.size() > 6) {
        fail(line, "expected: link <a> <b> <gbps> <latency_ms> [alloc]");
      }
      for (std::size_t side = 1; side <= 2; ++side) {
        if (!declared(line.tokens[side])) {
          fail(line, head + " references unknown datacenter '" + line.tokens[side] + "'");
        }
      }
      const auto [a, b] = std::minmax(line.tokens[1], line.tokens[2]);
      if (a == b) fail(line, head + " joins datacenter '" + a + "' to itself");
      if (const auto [it, fresh] = link_lines.emplace(std::make_pair(a, b), line.number); !fresh) {
        fail(line, "duplicate link between '" + a + "' and '" + b + "' (first at line " +
                       std::to_string(it->second) + ")");
      }
      LinkNotation ln;
      ln.gbps = positive(line, 3, head + " bandwidth");
      ln.latency_ms = non_negative(line, 4, head + " latency");
      ln.allocated_fraction =
          line.tokens.size() == 6
              ? checked(line, 5, head + " allocation", "in (0, 1]",
                        [](double v) { return v > 0.0 && v <= 1.0; })
              : 1.0;
      builder.connect_duplex(line.tokens[1], line.tokens[2], ln, head == "link");
      ++i;
    } else if (head == "population") {
      expect_argc(line, 5);
      PopulationDecl decl;
      decl.cfg.name = line.tokens[1];
      decl.line = line.number;
      decl.cfg.seed = seed;
      decl.dc_name = line.tokens[2];
      decl.app = line.tokens[3];
      decl.peak = positive(line, 4, "population peak");
      if (!(decl.peak * scale <= ClientPopulation::kMaxPeak)) {
        fail(line, "population peak must be <= " + std::to_string(ClientPopulation::kMaxPeak) +
                       " clients at scale " + number(scale) + ", got '" + line.tokens[4] + "'");
      }
      decl.cfg.think_time_mean_s = 30.0;
      decl.cfg.file_size_mb = 25.0;
      populations.push_back(decl);
      ++i;
      while (!at_end()) {
        const Line& sub = lines[i];
        const std::string& key = sub.tokens[0];
        if (key == "end") {
          ++i;
          break;
        } else if (key == "hours") {
          expect_argc(sub, 3);
          populations.back().hours = {hour_of_day(sub, 1), hour_of_day(sub, 2)};
        } else if (key == "think") {
          expect_argc(sub, 2);
          populations.back().cfg.think_time_mean_s = non_negative(sub, 1, "think time");
        } else if (key == "size") {
          expect_argc(sub, 2);
          populations.back().cfg.file_size_mb = non_negative(sub, 1, "file size");
        } else {
          fail(sub, "unknown population directive '" + key + "'");
        }
        ++i;
      }
    } else if (head == "synchrep" || head == "indexbuild") {
      expect_argc(line, 3);
      const bool synchrep = head == "synchrep";
      DaemonDecl decl{line.tokens[1],
                      synchrep ? positive(line, 2, "synchrep interval")
                               : non_negative(line, 2, "indexbuild delay"),
                      line.number};
      (synchrep ? synchreps : indexbuilds).push_back(decl);
      dc_refs.emplace_back(&line, 1);
      ++i;
    } else if (head == "growth") {
      if (line.tokens.size() != 3 && line.tokens.size() != 5) {
        fail(line, "expected: growth <dc> <peak_mb_per_hour> [start end]");
      }
      GrowthDecl decl;
      decl.dc = line.tokens[1];
      decl.peak_mb_per_hour = non_negative(line, 2, "growth rate");
      if (line.tokens.size() == 5) decl.hours = {hour_of_day(line, 3), hour_of_day(line, 4)};
      growths.push_back(decl);
      dc_refs.emplace_back(&line, 1);
      ++i;
    } else {
      fail(line, "unknown directive '" + head + "'");
    }
  }

  if (dc_names.empty()) throw std::invalid_argument(source + ": no datacenter defined");
  for (const auto& [ref, idx] : dc_refs) {
    if (!declared(ref->tokens[idx])) {
      fail(*ref, ref->tokens[0] + " references unknown datacenter '" + ref->tokens[idx] + "'");
    }
  }

  double slots = 0.0;
  for (const PopulationDecl& decl : populations) {
    slots += ClientPopulation::slots_for_peak(std::max(decl.peak * scale, 1.0));
  }
  require_slot_memory(slots, scale);

  Scenario s;
  s.tick_seconds = tick;
  s.scale = scale;
  s.topology = builder.finish();
  s.master_dc = master.empty() ? 0 : s.topology->find_dc(master);
  s.ctx = std::make_unique<OperationContext>(*s.topology, s.master_dc);
  s.catalog = std::make_unique<OperationCatalog>(OperationCatalog::standard());

  const TickClock clock(tick);
  for (PopulationDecl& decl : populations) {
    DcId dc;
    try {
      dc = s.topology->find_dc(decl.dc_name);
    } catch (const std::out_of_range&) {
      fail(source, decl.line, "population references unknown datacenter '" + decl.dc_name + "'");
    }
    decl.cfg.dc = dc;
    const auto ops = s.catalog->operations_of(decl.app);
    if (ops.empty()) {
      fail(source, decl.line, "population references unknown application '" + decl.app + "'");
    }
    decl.cfg.mix = OperationMix::uniform(ops);
    // Same clamp as the canned scenarios: a scale override never silently
    // deletes a declared population, it just shrinks it to one client.
    const double peak = std::max(decl.peak * scale, 1.0);
    decl.cfg.curve = decl.hours.has_value()
                         ? WorkloadCurve::business_hours(peak, 0.05 * peak,
                                                         decl.hours->first, decl.hours->second)
                         : WorkloadCurve::constant(peak);
    s.populations.push_back(
        std::make_unique<ClientPopulation>(decl.cfg, *s.catalog, *s.ctx, clock));
    for (const std::string& op : ops) {
      require_resolvable(*s.ctx, s.catalog->get(op), dc, source, decl.line,
                         "population '" + decl.cfg.name + "'");
    }
  }

  for (const GrowthDecl& decl : growths) {
    const DcId dc = s.topology->find_dc(decl.dc);
    const double peak_mb = decl.peak_mb_per_hour * scale;
    s.growth.set_curve(dc, decl.hours.has_value()
                               ? WorkloadCurve::business_hours(
                                     peak_mb, 0.03 * peak_mb,
                                     decl.hours->first, decl.hours->second)
                               : WorkloadCurve::constant(peak_mb));
  }

  std::vector<DcId> all_dcs;
  for (DcId d = 0; d < s.topology->dc_count(); ++d) all_dcs.push_back(d);

  for (const DaemonDecl& decl : synchreps) {
    SynchRepConfig cfg;
    cfg.name = "bg/synchrep@" + decl.dc;
    cfg.home_dc = s.topology->find_dc(decl.dc);
    cfg.interval_s = decl.seconds;
    cfg.participant_dcs = all_dcs;
    // A synchrep pulls from and pushes to every other data center.
    std::vector<std::pair<DcId, double>> others;
    for (DcId d : all_dcs) {
      if (d != cfg.home_dc) others.emplace_back(d, 1.0);
    }
    require_resolvable(*s.ctx, make_synchrep_cascade(cfg.home_dc, others, others), cfg.home_dc,
                       source, decl.line, "synchrep " + decl.dc);
    s.synchreps.push_back(std::make_unique<SynchRepDaemon>(cfg, s.growth, AccessPatternMatrix(),
                                                           *s.ctx, clock));
  }
  for (const DaemonDecl& decl : indexbuilds) {
    IndexBuildConfig cfg;
    cfg.name = "bg/indexbuild@" + decl.dc;
    cfg.home_dc = s.topology->find_dc(decl.dc);
    cfg.delay_after_completion_s = decl.seconds;
    cfg.producer_dcs = all_dcs;
    require_resolvable(*s.ctx, make_indexbuild_cascade(cfg.home_dc, 1.0, cfg.index_parallelism),
                       cfg.home_dc, source, decl.line, "indexbuild " + decl.dc);
    s.indexbuilds.push_back(std::make_unique<IndexBuildDaemon>(cfg, s.growth,
                                                               AccessPatternMatrix(), *s.ctx,
                                                               clock));
  }
  return s;
}

Scenario load_scenario_file(const std::string& path, double scale) {
  std::ifstream in(path);
  if (!in) throw std::invalid_argument("cannot open scenario config: " + path);
  return load_scenario(in, path, scale);
}

}  // namespace gdisim
