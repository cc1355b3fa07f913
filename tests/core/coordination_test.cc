#include "ch4/coordination.h"

#include <gtest/gtest.h>

#include <vector>

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

}  // namespace
}  // namespace gdisim
