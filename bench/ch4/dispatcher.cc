#include "ch4/dispatcher.h"

namespace gdisim {

Dispatcher::Dispatcher(std::size_t thread_count) {
  threads_.reserve(thread_count);
  for (std::size_t i = 0; i < thread_count; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

Dispatcher::~Dispatcher() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void Dispatcher::post(WorkItem item) {
  if (threads_.empty()) {
    item();
    std::lock_guard<std::mutex> lock(mu_);
    ++executed_;
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(item));
  }
  cv_.notify_one();
}

void Dispatcher::drain() {
  if (threads_.empty()) return;
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

std::uint64_t Dispatcher::executed_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return executed_;
}

void Dispatcher::worker_loop() {
  for (;;) {
    WorkItem item;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      item = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    item();
    {
      std::lock_guard<std::mutex> lock(mu_);
      --active_;
      ++executed_;
      if (queue_.empty() && active_ == 0) idle_cv_.notify_all();
    }
  }
}

}  // namespace gdisim
