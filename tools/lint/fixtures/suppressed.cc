// Lint self-test fixture: every construct is NOLINT'd; the linter must
// report each finding with suppressed=true and exit 0 for this file.
#include <cstdlib>
#include <ctime>
#include <unordered_map>

struct Job {};

void suppressed_cases() {
  std::unordered_map<Job*, int> live;  // NOLINT(gdisim-ptr-key-decl) fixture: lookup only
  // NOLINTNEXTLINE(gdisim-ptr-key-iter) fixture: order not observable
  for (auto& [job, refs] : live) {
    (void)job;
    (void)refs;
  }
  // NOLINTNEXTLINE(gdisim-*) fixture: replay shim, not sim time
  const long t = time(nullptr);
  (void)t;
  const char* env = std::getenv("HOME");  // NOLINT fixture: host-tool probe
  (void)env;
}

class StateArchive;

struct SnapshotState {
  Job* owner;  // travels as a stable id  NOLINT(gdisim-snapshot-ptr, gdisim-archive-missing-field)
  void archive_state(StateArchive& ar);
};

struct SnapshotIndex {
  std::vector<const Job*> members;  // travel as stable ids  NOLINT(gdisim-snapshot-ptr, gdisim-archive-missing-field)
  mutable Job* cached = nullptr;  // rebuilt on load  NOLINT(gdisim-snapshot-ptr, gdisim-archive-missing-field)
  void archive_state(StateArchive& ar);
};
