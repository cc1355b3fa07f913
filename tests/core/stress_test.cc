// Concurrency stress tests for the Ch. 4 runtime: many producer threads
// against ports, the dispatcher and the H-Dispatch engine must lose nothing.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "ch4/coordination.h"
#include "ch4/engine.h"

namespace gdisim {
namespace {

TEST(PortStress, ConcurrentProducersLoseNothing) {
  Dispatcher dispatcher(4);
  Port<int> port;
  std::atomic<std::uint64_t> sum{0};
  std::atomic<int> received{0};
  auto receiver = SingleItemReceiver<int>::attach(port, dispatcher, [&](int v) {
    sum.fetch_add(static_cast<std::uint64_t>(v));
    received.fetch_add(1);
  });

  constexpr int kProducers = 8;
  constexpr int kPerProducer = 5000;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&port, p] {
      for (int i = 0; i < kPerProducer; ++i) port.post(p * kPerProducer + i);
    });
  }
  for (auto& t : producers) t.join();
  dispatcher.drain();
  // Receivers may still be draining the port after the last post; flush.
  while (port.size() > 0) {
    std::this_thread::yield();
    dispatcher.drain();
  }
  dispatcher.drain();

  const int total = kProducers * kPerProducer;
  EXPECT_EQ(received.load(), total);
  EXPECT_EQ(sum.load(), static_cast<std::uint64_t>(total) * (total - 1) / 2);
}

TEST(DispatcherStress, PostFromManyThreads) {
  Dispatcher d(4);
  std::atomic<int> executed{0};
  std::vector<std::thread> posters;
  for (int t = 0; t < 6; ++t) {
    posters.emplace_back([&d, &executed] {
      for (int i = 0; i < 3000; ++i) d.post([&executed] { executed.fetch_add(1); });
    });
  }
  for (auto& t : posters) t.join();
  d.drain();
  EXPECT_EQ(executed.load(), 18000);
}

TEST(EngineStress, RepeatedPhasesUnderContention) {
  auto engine = make_h_dispatch_engine(4, 16);
  std::atomic<std::uint64_t> total{0};
  for (int round = 0; round < 500; ++round) {
    engine->for_each(97, [&total](std::size_t i) {
      total.fetch_add(i, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(total.load(), 500ull * (96ull * 97ull / 2ull));
}

}  // namespace
}  // namespace gdisim
