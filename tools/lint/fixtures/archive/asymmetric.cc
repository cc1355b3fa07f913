// Archive-coverage fixture: save/load paths that disagree. Exercised by
// tests/lint/lint_self_test.py -- keep line numbers stable or
// update EXPECTED there.
#include <cstdint>

namespace fx {

struct StateArchive {
  bool writing() const;
  bool reading() const;
  void u64(std::uint64_t&);
  void section(const char*);
};

// Reordered: the load path consumes b_ from bytes that held a_.
class Pair {
 public:
  void archive_state(StateArchive& ar) {
    ar.section("pair");
    if (ar.writing()) {
      ar.u64(a_);
      ar.u64(b_);
    } else {
      ar.u64(b_);
      ar.u64(a_);
    }
  }

 private:
  std::uint64_t a_ = 0;
  std::uint64_t b_ = 0;
};

// One-sided: the save path emits y_ but the load path never consumes it.
class Skew {
 public:
  void archive_state(StateArchive& ar) {
    ar.section("skew");
    ar.u64(x_);
    if (ar.writing()) ar.u64(y_);
    if (ar.reading()) y_ = 0;
  }

 private:
  std::uint64_t x_ = 0;
  std::uint64_t y_ = 0;
};

}  // namespace fx
