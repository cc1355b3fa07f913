// The reproduction's check rows (bench/repro.cc): each thesis number the
// driver reads, with the band or ordering its measured value must meet, and
// the evaluator that turns a row and the measured values into a status.
#pragma once

#include <map>
#include <string>
#include <vector>

namespace gdisim::repro {

/// Measured quantities, keyed "<ref>: <what>" (see key()).
using Measurements = std::map<std::string, double>;

struct Check {
  std::string ref;    // thesis table, figure or section the row reproduces
  std::string what;   // the quantity read, in display units
  std::string paper;  // the thesis value as the thesis states it
  /// Band row (`above` empty): passes when lo <= measured <= hi.
  double lo = 0.0;
  double hi = 0.0;
  /// Ordering row: passes when measured > every listed quantity - tol.
  std::vector<std::string> above;
  double tol = 0.0;
  int digits = 1;  // printed precision of the measured value and the band
  /// The code misses this row today: it prints its number and does not
  /// fail the run. A marked row that passes fails the run until unmarked.
  bool known_deviation = false;
};

/// The Measurements key a row reads.
std::string key(const Check& c);

enum class Status { kOk, kKnownDeviation, kFail, kUnexpectedPass };

struct Outcome {
  double measured = 0.0;
  std::string band;  // the band or ordering, rendered at the row's digits
  Status status = Status::kFail;
};

/// Evaluates one row; throws std::out_of_range naming the key when a
/// quantity the row reads was never measured.
Outcome evaluate(const Check& check, const Measurements& m);

/// Whether the status fails the run.
bool fails(Status s);

const char* status_text(Status s);

}  // namespace gdisim::repro
