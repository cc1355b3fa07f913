// Archive-coverage fixture: a snapshotable type with one field that is
// neither archived nor annotated. Exercised by
// tests/lint/lint_self_test.py -- keep line numbers stable or
// update EXPECTED there.
#include <cstdint>

namespace fx {

struct StateArchive {
  bool writing() const;
  bool reading() const;
  void u64(std::uint64_t&);
  void f64(double&);
  void section(const char*);
};

class Meter {
 public:
  void archive_state(StateArchive& ar) {
    ar.section("meter");
    ar.u64(count_);
    ar.f64(rate_);
  }

 private:
  std::uint64_t count_ = 0;
  double rate_ = 0.0;
  double dropped_ = 0.0;
  double cache_ = 0.0;  // ARCHIVE-TRANSIENT: derived from rate_; rebuilt on demand
  double debug_gauge_ = 0.0;  // NOLINT(gdisim-archive-missing-field) fixture: suppressed finding
};

}  // namespace fx
