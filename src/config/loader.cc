#include "config/loader.h"

#include <fstream>
#include <istream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <vector>

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

double to_double(const Line& line, std::size_t idx) {
  try {
    return std::stod(line.tokens.at(idx));
  } catch (const std::exception&) {
    fail(line, "expected a number, got '" + line.tokens.at(idx) + "'");
  }
}

unsigned to_unsigned(const Line& line, std::size_t idx) {
  const double v = to_double(line, idx);
  if (v < 0 || v != static_cast<unsigned>(v)) {
    fail(line, "expected a non-negative integer, got '" + line.tokens.at(idx) + "'");
  }
  return static_cast<unsigned>(v);
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
  std::map<std::string, std::pair<double, double>> dc_hours;  // optional per-DC window
  bool any_dc = false;

  std::size_t i = 0;
  auto at_end = [&] { return i >= lines.size(); };

  while (!at_end()) {
    const Line& line = lines[i];
    const std::string& head = line.tokens[0];

    if (head == "tick") {
      expect_argc(line, 2);
      tick = to_double(line, 1);
      if (tick <= 0) fail(line, "tick must be positive, got '" + line.tokens[1] + "'");
      ++i;
    } else if (head == "seed") {
      expect_argc(line, 2);
      seed = static_cast<std::uint64_t>(to_double(line, 1));
      ++i;
    } else if (head == "master") {
      expect_argc(line, 2);
      master = line.tokens[1];
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
          bp.switch_gbps = to_double(sub, 1);
        } else if (key == "san") {
          expect_argc(sub, 4);
          bp.san = SanNotation{to_unsigned(sub, 1), to_unsigned(sub, 2), to_double(sub, 3)};
        } else if (key == "tier") {
          expect_argc(sub, 5);
          const TierKind kind = parse_tier_kind(sub, sub.tokens[1]);
          bp.tiers[kind] =
              TierNotation{to_unsigned(sub, 2), to_unsigned(sub, 3), to_double(sub, 4)};
        } else if (key == "tier_link") {
          expect_argc(sub, 3);
          bp.tier_link = LinkNotation{to_double(sub, 1), to_double(sub, 2), 1.0};
        } else {
          fail(sub, "unknown datacenter directive '" + key + "'");
        }
        ++i;
      }
      if (!closed) fail(line, "datacenter block not closed with 'end'");
      builder.add_datacenter(bp);
      any_dc = true;
    } else if (head == "link" || head == "backup_link") {
      if (line.tokens.size() < 5 || line.tokens.size() > 6) {
        fail(line, "expected: link <a> <b> <gbps> <latency_ms> [alloc]");
      }
      LinkNotation ln;
      ln.gbps = to_double(line, 3);
      ln.latency_ms = to_double(line, 4);
      ln.allocated_fraction = line.tokens.size() == 6 ? to_double(line, 5) : 1.0;
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
      decl.peak = to_double(line, 4);
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
          populations.back().hours = {to_double(sub, 1), to_double(sub, 2)};
        } else if (key == "think") {
          expect_argc(sub, 2);
          populations.back().cfg.think_time_mean_s = to_double(sub, 1);
        } else if (key == "size") {
          expect_argc(sub, 2);
          populations.back().cfg.file_size_mb = to_double(sub, 1);
        } else {
          fail(sub, "unknown population directive '" + key + "'");
        }
        ++i;
      }
    } else if (head == "synchrep" || head == "indexbuild") {
      expect_argc(line, 3);
      DaemonDecl decl{line.tokens[1], to_double(line, 2), line.number};
      (head == "synchrep" ? synchreps : indexbuilds).push_back(decl);
      ++i;
    } else if (head == "growth") {
      if (line.tokens.size() != 3 && line.tokens.size() != 5) {
        fail(line, "expected: growth <dc> <peak_mb_per_hour> [start end]");
      }
      GrowthDecl decl;
      decl.dc = line.tokens[1];
      decl.peak_mb_per_hour = to_double(line, 2);
      if (line.tokens.size() == 5) decl.hours = {to_double(line, 3), to_double(line, 4)};
      growths.push_back(decl);
      ++i;
    } else {
      fail(line, "unknown directive '" + head + "'");
    }
  }

  if (!any_dc) throw std::invalid_argument(source + ": no datacenter defined");

  Scenario s;
  s.tick_seconds = tick;
  s.scale = scale;
  s.topology = builder.finish();
  s.master_dc = master.empty() ? 0 : s.topology->find_dc(master);
  s.ctx = std::make_unique<OperationContext>(*s.topology, s.master_dc);
  s.catalog = std::make_unique<OperationCatalog>(OperationCatalog::standard());
  (void)dc_hours;

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
    cfg.seed = seed;
    s.synchreps.push_back(std::make_unique<SynchRepDaemon>(cfg, s.growth, AccessPatternMatrix(),
                                                           *s.ctx, clock));
  }
  for (const DaemonDecl& decl : indexbuilds) {
    IndexBuildConfig cfg;
    cfg.name = "bg/indexbuild@" + decl.dc;
    cfg.home_dc = s.topology->find_dc(decl.dc);
    cfg.delay_after_completion_s = decl.seconds;
    cfg.producer_dcs = all_dcs;
    cfg.seed = seed;
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
