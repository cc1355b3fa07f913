#include "ch4/dispatcher.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>

namespace gdisim {
namespace {

TEST(Dispatcher, InlineModeExecutesSynchronously) {
  Dispatcher d(0);
  int calls = 0;
  d.post([&calls] { ++calls; });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(d.executed_count(), 1u);
}

TEST(Dispatcher, ExecutesAllItems) {
  Dispatcher d(4);
  std::atomic<int> calls{0};
  for (int i = 0; i < 1000; ++i) d.post([&calls] { calls.fetch_add(1); });
  d.drain();
  EXPECT_EQ(calls.load(), 1000);
  EXPECT_EQ(d.executed_count(), 1000u);
}

TEST(Dispatcher, DrainOnEmptyQueueReturns) {
  Dispatcher d(2);
  d.drain();  // must not deadlock
  SUCCEED();
}

TEST(Dispatcher, ParallelismActuallyHappens) {
  Dispatcher d(4);
  std::atomic<int> concurrent{0};
  std::atomic<int> max_concurrent{0};
  for (int i = 0; i < 64; ++i) {
    d.post([&] {
      const int c = concurrent.fetch_add(1) + 1;
      int expected = max_concurrent.load();
      while (c > expected && !max_concurrent.compare_exchange_weak(expected, c)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      concurrent.fetch_sub(1);
    });
  }
  d.drain();
  EXPECT_GT(max_concurrent.load(), 1);
}

TEST(Dispatcher, ItemsRunOnWorkerThreads) {
  Dispatcher d(2);
  std::set<std::thread::id> ids;
  std::mutex mu;
  for (int i = 0; i < 100; ++i) {
    d.post([&] {
      std::lock_guard<std::mutex> lock(mu);
      ids.insert(std::this_thread::get_id());
    });
  }
  d.drain();
  EXPECT_FALSE(ids.count(std::this_thread::get_id()));
}

TEST(Dispatcher, DestructorDrainsCleanly) {
  std::atomic<int> calls{0};
  {
    Dispatcher d(2);
    for (int i = 0; i < 100; ++i) d.post([&calls] { calls.fetch_add(1); });
    d.drain();
  }
  EXPECT_EQ(calls.load(), 100);
}

}  // namespace
}  // namespace gdisim
