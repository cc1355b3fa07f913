// Lint self-test fixture: every construct below must be flagged.
// This file is never compiled; it exists so tests/lint_self_test can pin
// the linter's behaviour (and its JSON schema) against known-bad input.
#include <cstdlib>
#include <ctime>
#include <map>
#include <random>
#include <set>
#include <unordered_map>
#include <unordered_set>

struct Job {};

void ptr_key_decls() {
  std::unordered_map<Job*, int> live;       // gdisim-ptr-key-decl
  std::unordered_set<const Job*> seen;      // gdisim-ptr-key-decl
  for (auto& [job, refs] : live) {          // gdisim-ptr-key-iter
    (void)job;
    (void)refs;
  }
  for (const auto& j : seen) {              // gdisim-ptr-key-iter
    (void)j;
  }
}

void addr_ordered() {
  std::map<Job*, int> ordered;              // gdisim-addr-ordered
  std::set<Job*, std::less<Job*>> by_addr;  // gdisim-addr-ordered
  (void)ordered;
  (void)by_addr;
}

int raw_rand() {
  std::random_device rd;                    // gdisim-raw-rand
  std::mt19937 gen(rd());                   // gdisim-raw-rand
  return std::rand() + static_cast<int>(gen());  // gdisim-raw-rand
}

long wall_clock() {
  const long t = time(nullptr);             // gdisim-wall-clock
  return t;
}

const char* env_read() {
  return std::getenv("GDISIM_THREADS");     // gdisim-getenv
}

class StateArchive;

// Snapshotable (declares an archive method): raw-pointer fields flagged.
struct SnapshotQueue {
  Job* head;                                // gdisim-snapshot-ptr
  int depth = 0;
  void archive_state(StateArchive& ar);
  // Nested structs are archived by the enclosing type's method.
  struct Entry {
    Job* parent;                            // gdisim-snapshot-ptr
    double work = 0.0;
  };
};

// Snapshotable via a free archive_* function taking it by reference.
struct WireJob {
  Job* origin;                              // gdisim-snapshot-ptr
  long tag = 0;
};
void archive_wire_job(StateArchive& ar, WireJob& job);

// Reasonless gdisim suppressions are themselves findings; the suppressed
// finding still surfaces in the JSON report, marked suppressed.
const char* reasonless_suppression() {
  return std::getenv("HOME");               // NOLINT(gdisim-getenv)
}

long reasonless_nextline() {
  // NOLINTNEXTLINE
  return time(nullptr);
}

// A raw pointer inside template arguments or behind `mutable` is flagged
// too; an owning std::unique_ptr container is not.
struct SnapshotRegistry {
  std::vector<Job*> members;                // gdisim-snapshot-ptr
  mutable Job* cached = nullptr;            // gdisim-snapshot-ptr
  std::map<int, std::unique_ptr<Job>> owned;
  void archive_state(StateArchive& ar);
};
