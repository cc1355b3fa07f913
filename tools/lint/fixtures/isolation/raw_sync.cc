// Fixture: synchronization primitives in the thread-free simulator library
// must carry a GDISIM-SHARED reason so the inventory stays auditable.
// Lock *usage* (lock_guard) and annotated declarations are exempt.
#include <atomic>
#include <mutex>

namespace fixture {

class Widget {
 public:
  long read() const {
    std::lock_guard<std::mutex> hold(mu_);  // usage, not a declaration
    return slow_;
  }

 private:
  std::atomic<long> hits_{0};  // unannotated primitive: flagged
  mutable std::mutex mu_;      // unannotated primitive: flagged
  std::atomic<long> ticks_{0};  // GDISIM-SHARED: relaxed metrics counter
  long slow_ = 0;
};

}  // namespace fixture
