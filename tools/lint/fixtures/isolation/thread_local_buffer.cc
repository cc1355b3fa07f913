// Fixture: gdisim-raw-sync treats a thread_local like an atomic or a mutex.
// Per-thread storage outlives the simulator that wrote it, and a
// thread-free library has no use for it, so each declaration must carry a
// GDISIM-SHARED reason for the shared-state inventory. Annotated
// declarations are exempt.
#include <cstddef>
#include <vector>

namespace fixture {

std::size_t shard_id() {
  thread_local std::size_t id = 0;  // unannotated buffer: flagged
  return id;
}

std::vector<int>& staging() {
  // GDISIM-SHARED: written by this thread in-phase, drained by the master at barriers
  thread_local std::vector<int> buf;
  return buf;
}

}  // namespace fixture
