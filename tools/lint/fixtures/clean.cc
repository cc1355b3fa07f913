// Lint self-test fixture: nothing here may be flagged. Exercises the
// comment/string stripper and the stable-ID idioms the lint steers toward.
#include <cstdint>
#include <string>
#include <unordered_map>

struct Op {};

// Mentions of system_clock, std::rand and getenv inside comments are fine.
void clean_cases() {
  // Stable-ID keyed map: the recommended replacement for pointer keys.
  std::unordered_map<std::uint64_t, Op> live;
  for (auto& [serial, op] : live) {
    (void)serial;
    (void)op;
  }
  // String literals must not trip the rules either:
  const std::string msg = "call std::rand() or time(nullptr) at your peril";
  (void)msg;
  // An identifier merely *containing* a banned token is fine:
  int uptime(int);  // "time(" preceded by letters
  (void)uptime;
}

class StateArchive;

// Raw-pointer fields are fine in types with no archive path at all.
struct TransientView {
  Op* current = nullptr;
  Op* next = nullptr;
};

// Snapshotable types may hold smart pointers and plain values freely; only
// raw-pointer fields need the stable-id treatment. Pointer-returning
// methods and pointer locals inside method bodies are not fields.
struct SnapshotClean {
  std::uint64_t serial = 0;
  void archive_state(StateArchive& ar) { ar.u64(serial); }
  Op* find(std::uint64_t key);
  int drain() {
    Op* scratch = nullptr;
    (void)scratch;
    return 0;
  }
};
