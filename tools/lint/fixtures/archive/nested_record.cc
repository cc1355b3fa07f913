// Archive-coverage fixture: a nested record with no archive method of its
// own is streamed field by field by its enclosing type, which misses one of
// its fields. Exercised by tests/lint/lint_self_test.py -- keep line numbers
// stable or update EXPECTED there.
#include <cstdint>
#include <vector>

namespace fx {

struct StateArchive {
  void u64(std::uint64_t&);
  void f64(double&);
  void section(const char*);
};

class Ledger {
 public:
  void archive_state(StateArchive& ar) {
    ar.section("ledger");
    for (Row& row : rows_) {
      ar.u64(row.id);
      ar.f64(row.amount);
    }
  }

 private:
  struct Row {
    std::uint64_t id = 0;
    double amount = 0.0;
    double fee = 0.0;
  };
  std::vector<Row> rows_;
};

}  // namespace fx
