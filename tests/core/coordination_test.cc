#include "ch4/coordination.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>

namespace gdisim {
namespace {

TEST(Port, PostAndTake) {
  Port<int> p;
  p.post(1);
  p.post(2);
  EXPECT_EQ(p.size(), 2u);
  EXPECT_EQ(p.try_take().value(), 1);
  EXPECT_EQ(p.try_take().value(), 2);
  EXPECT_FALSE(p.try_take().has_value());
}

TEST(Port, TakeUpTo) {
  Port<int> p;
  for (int i = 0; i < 5; ++i) p.post(i);
  auto batch = p.take_up_to(3);
  EXPECT_EQ(batch.size(), 3u);
  EXPECT_EQ(p.size(), 2u);
}

TEST(SingleItemReceiver, FiresPerMessage) {
  Dispatcher d(0);
  Port<int> p;
  std::vector<int> seen;
  auto r = SingleItemReceiver<int>::attach(p, d, [&seen](int v) { seen.push_back(v); });
  p.post(10);
  p.post(20);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], 10);
  EXPECT_EQ(seen[1], 20);
}

TEST(SingleItemReceiver, DeliversPreExistingMessages) {
  Dispatcher d(0);
  Port<int> p;
  p.post(5);
  std::vector<int> seen;
  auto r = SingleItemReceiver<int>::attach(p, d, [&seen](int v) { seen.push_back(v); });
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], 5);
}

TEST(MultipleItemReceiver, FiresWhenExpectedCountReached) {
  Dispatcher d(0);
  Port<int> ok;
  Port<std::string> err;
  std::vector<int> got_ok;
  std::vector<std::string> got_err;
  auto r = MultipleItemReceiver<int, std::string>::attach(
      ok, err, 3, d, [&](std::vector<int> ms, std::vector<std::string> es) {
        got_ok = std::move(ms);
        got_err = std::move(es);
      });
  ok.post(1);
  ok.post(2);
  EXPECT_TRUE(got_ok.empty());
  err.post("boom");
  EXPECT_EQ(got_ok.size(), 2u);
  EXPECT_EQ(got_err.size(), 1u);
  EXPECT_EQ(got_err[0], "boom");
}

TEST(MultipleItemReceiver, FiresOnlyOnce) {
  Dispatcher d(0);
  Port<int> ok;
  Port<int> err;
  std::atomic<int> fires{0};
  auto r = MultipleItemReceiver<int, int>::attach(
      ok, err, 2, d, [&](std::vector<int>, std::vector<int>) { fires.fetch_add(1); });
  ok.post(1);
  ok.post(2);
  ok.post(3);
  ok.post(4);
  EXPECT_EQ(fires.load(), 1);
}

TEST(JoinReceiver, FiresWhenBothPortsHaveMessages) {
  Dispatcher d(0);
  Port<int> a;
  Port<std::string> b;
  std::vector<std::pair<int, std::string>> seen;
  auto r = JoinReceiver<int, std::string>::attach(
      a, b, d, [&](int x, std::string y) { seen.emplace_back(x, std::move(y)); });
  a.post(1);
  EXPECT_TRUE(seen.empty());
  b.post("x");
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].first, 1);
  EXPECT_EQ(seen[0].second, "x");
}

TEST(Choice, RoutesByAlternative) {
  Dispatcher d(0);
  Port<std::variant<int, std::string>> p;
  std::vector<int> ints;
  std::vector<std::string> strs;
  auto r = Choice<int, std::string>::attach(
      p, d, [&](int v) { ints.push_back(v); }, [&](std::string s) { strs.push_back(s); });
  p.post(1);
  p.post(std::string("two"));
  p.post(3);
  EXPECT_EQ(ints.size(), 2u);
  EXPECT_EQ(strs.size(), 1u);
}

TEST(Interleave, ConcurrentHandlersRunInParallel) {
  Interleave il;
  Dispatcher d(4);
  std::atomic<int> concurrent{0};
  std::atomic<int> max_seen{0};
  auto handler = il.concurrent([&]() {
    const int c = concurrent.fetch_add(1) + 1;
    int expected = max_seen.load();
    while (c > expected && !max_seen.compare_exchange_weak(expected, c)) {
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
    concurrent.fetch_sub(1);
  });
  for (int i = 0; i < 16; ++i) d.post(handler);
  d.drain();
  EXPECT_GT(max_seen.load(), 1);
}

TEST(Interleave, ExclusiveHandlerRunsAlone) {
  Interleave il;
  Dispatcher d(4);
  std::atomic<int> inside{0};
  std::atomic<bool> overlap{false};
  auto conc = il.concurrent([&]() {
    if (inside.load() > 0) overlap.store(true);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  });
  auto excl = il.exclusive([&]() {
    inside.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    inside.fetch_sub(1);
  });
  for (int i = 0; i < 20; ++i) {
    d.post(conc);
    d.post(excl);
  }
  d.drain();
  EXPECT_FALSE(overlap.load());
}

TEST(Interleave, TeardownRunsAtMostOnceAndDisablesOthers) {
  Interleave il;
  std::atomic<int> teardown_calls{0};
  std::atomic<int> concurrent_calls{0};
  auto td = il.teardown([&]() { teardown_calls.fetch_add(1); });
  auto conc = il.concurrent([&]() { concurrent_calls.fetch_add(1); });
  conc();
  td();
  td();
  conc();
  EXPECT_EQ(teardown_calls.load(), 1);
  EXPECT_EQ(concurrent_calls.load(), 1);
  EXPECT_TRUE(il.torn_down());
}

}  // namespace
}  // namespace gdisim
