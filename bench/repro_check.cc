#include "repro_check.h"

#include <stdexcept>

#include "metrics/report.h"

namespace gdisim::repro {

namespace {

double read(const Measurements& m, const std::string& k) {
  const auto it = m.find(k);
  if (it == m.end()) throw std::out_of_range("no measurement for '" + k + "'");
  return it->second;
}

}  // namespace

std::string key(const Check& c) { return c.ref + ": " + c.what; }

Outcome evaluate(const Check& c, const Measurements& m) {
  Outcome out;
  out.measured = read(m, key(c));
  bool pass = false;
  if (c.above.empty()) {
    pass = out.measured >= c.lo && out.measured <= c.hi;
    out.band.append("[").append(TableReport::fmt(c.lo, c.digits)).append(", ");
    out.band.append(TableReport::fmt(c.hi, c.digits)).append("]");
  } else {
    std::string rival = c.above.front();
    double bound = read(m, rival);
    for (const std::string& k : c.above) {
      if (read(m, k) > bound) {
        bound = read(m, k);
        rival = k;
      }
    }
    pass = out.measured > bound - c.tol;
    out.band.append("> ").append(TableReport::fmt(bound - c.tol, c.digits));
    out.band.append(" (").append(rival);
    if (c.tol > 0.0) out.band.append(" - ").append(TableReport::fmt(c.tol, c.digits));
    out.band.append(")");
  }
  if (c.known_deviation) {
    out.status = pass ? Status::kUnexpectedPass : Status::kKnownDeviation;
  } else {
    out.status = pass ? Status::kOk : Status::kFail;
  }
  return out;
}

bool fails(Status s) { return s == Status::kFail || s == Status::kUnexpectedPass; }

const char* status_text(Status s) {
  switch (s) {
    case Status::kOk:
      return "ok";
    case Status::kKnownDeviation:
      return "known deviation";
    case Status::kFail:
      return "**FAIL**";
    case Status::kUnexpectedPass:
      return "**in band: unmark**";
  }
  return "?";
}

}  // namespace gdisim::repro
