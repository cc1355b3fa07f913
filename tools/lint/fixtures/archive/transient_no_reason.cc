// Archive-coverage fixture: ARCHIVE-TRANSIENT annotations with and without a
// reason. Exercised by tests/lint/lint_self_test.py -- keep line
// numbers stable or update EXPECTED there.
#include <cstdint>

namespace fx {

struct StateArchive {
  void u64(std::uint64_t&);
  void section(const char*);
};

class Cache {
 public:
  void archive_state(StateArchive& ar) {
    ar.section("cache");
    ar.u64(entries_);
  }

 private:
  std::uint64_t entries_ = 0;
  double hit_rate_ = 0.0;  // ARCHIVE-TRANSIENT
  // ARCHIVE-TRANSIENT: rebuilt from entries_ on first access
  double miss_rate_ = 0.0;
};

}  // namespace fx
