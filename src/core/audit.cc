#include "core/audit.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>

namespace gdisim::audit {

const char* category_name(Category c) {
  switch (c) {
    case Category::kFcfsJob:
      return "fcfs";
    case Category::kPsJob:
      return "ps";
    case Category::kRaidJob:
      return "raid";
    case Category::kSanJob:
      return "san";
    case Category::kOperation:
      return "operation";
    case Category::kCount:
      break;
  }
  return "?";
}

#if GDISIM_AUDIT_ENABLED

namespace {

constexpr unsigned kCategories = static_cast<unsigned>(Category::kCount);

struct State {
  std::atomic<std::uint64_t> spawned[kCategories] = {};
  std::atomic<std::uint64_t> completed[kCategories] = {};
  std::atomic<std::uint64_t> drain_hash{0};
  std::atomic<std::uint64_t> failures{0};
  std::atomic<FailureHandler> handler{nullptr};
};

State& state() {
  static State s;  // GDISIM-SHARED: process-wide audit counters, all members atomic
  return s;
}

void default_handler(const char* message) {
  std::fprintf(stderr, "GDISIM_AUDIT violation: %s\n", message);
  std::fflush(stderr);
  std::abort();
}

}  // namespace

void fail(const char* message) {
  State& s = state();
  s.failures.fetch_add(1, std::memory_order_relaxed);
  FailureHandler h = s.handler.load(std::memory_order_acquire);
  (h != nullptr ? h : default_handler)(message);
}

FailureHandler set_failure_handler(FailureHandler handler) {
  return state().handler.exchange(handler, std::memory_order_acq_rel);
}

void job_spawned(Category c) {
  state().spawned[static_cast<unsigned>(c)].fetch_add(1, std::memory_order_relaxed);
}

void job_completed(Category c) {
  State& s = state();
  const unsigned i = static_cast<unsigned>(c);
  const std::uint64_t done = s.completed[i].fetch_add(1, std::memory_order_relaxed) + 1;
  // The spawn of a job happens-before its completion, so a concurrent load
  // can only under-report completions relative to spawns, never the reverse;
  // completed > spawned is therefore a genuine double-complete (or a
  // completion for a job that was never spawned).
  if (done > s.spawned[i].load(std::memory_order_relaxed)) {
    fail("job conservation: more completions than spawns");
  }
}

void check(bool ok, const char* what) {
  if (!ok) fail(what);
}

void check_nonneg(double value, const char* what) {
  // Also catches NaN: the comparison is false for NaN, which is exactly the
  // kind of silent corruption the auditor exists to surface.
  if (!(value >= 0.0)) fail(what);
}

void fold_drain(std::uint64_t h) {
  state().drain_hash.fetch_xor(h, std::memory_order_relaxed);
}

std::uint64_t drain_hash() {
  return state().drain_hash.load(std::memory_order_relaxed);
}

void check_drained(Category c, const char* what) {
  const Report r = snapshot();
  if (r.live(c) != 0) fail(what);
}

Report snapshot() {
  State& s = state();
  Report r;
  for (unsigned i = 0; i < kCategories; ++i) {
    r.spawned[i] = s.spawned[i].load(std::memory_order_relaxed);
    r.completed[i] = s.completed[i].load(std::memory_order_relaxed);
  }
  r.drain_hash = s.drain_hash.load(std::memory_order_relaxed);
  r.failures = s.failures.load(std::memory_order_relaxed);
  return r;
}

void reset() {
  State& s = state();
  for (unsigned i = 0; i < kCategories; ++i) {
    s.spawned[i].store(0, std::memory_order_relaxed);
    s.completed[i].store(0, std::memory_order_relaxed);
  }
  s.drain_hash.store(0, std::memory_order_relaxed);
  s.failures.store(0, std::memory_order_relaxed);
}

#endif  // GDISIM_AUDIT_ENABLED

}  // namespace gdisim::audit
