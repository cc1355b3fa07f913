// Port-based programming abstraction (thesis §4.2.2, Figure 4-1).
//
// A Port<T> is the only point of entry to a stateful agent. Messages posted
// to a port are paired with the port's registered receiver by the arbiter
// and submitted to a dispatcher as work items ("active messages").
//
// Receivers are registered through the coordination primitives in
// coordination.h (single-item, multiple-item, join, choice, interleave);
// this header provides the raw port and the arbiter hook they build upon.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>

#include "ch4/dispatcher.h"

namespace gdisim {

namespace detail {

/// Type-erased receiver hook installed on a port by a coordination primitive.
/// `on_post` is invoked (under the port lock released) after each message is
/// enqueued; the receiver decides whether to consume messages and schedule
/// handler work items.
class ReceiverHook {
 public:
  virtual ~ReceiverHook() = default;
  virtual void on_post() = 0;
};

}  // namespace detail

template <typename T>
class Port {
 public:
  Port() = default;
  Port(const Port&) = delete;
  Port& operator=(const Port&) = delete;

  /// Posts a message. If a receiver is attached it is notified so it can
  /// evaluate its firing condition.
  void post(T message) {
    std::shared_ptr<detail::ReceiverHook> hook;
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.push_back(std::move(message));
      hook = hook_;
    }
    if (hook) hook->on_post();
  }

  /// Non-blocking test-and-take.
  std::optional<T> try_take() {
    std::lock_guard<std::mutex> lock(mu_);
    if (queue_.empty()) return std::nullopt;
    T front = std::move(queue_.front());
    queue_.pop_front();
    return front;
  }

  /// Takes up to `n` messages at once (used by multiple-item receivers).
  std::deque<T> take_up_to(std::size_t n) {
    std::lock_guard<std::mutex> lock(mu_);
    std::deque<T> out;
    while (!queue_.empty() && out.size() < n) {
      out.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
    return out;
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return queue_.size();
  }

  /// Installs/replaces the receiver hook. Passing nullptr detaches.
  void attach(std::shared_ptr<detail::ReceiverHook> hook) {
    std::shared_ptr<detail::ReceiverHook> installed;
    {
      std::lock_guard<std::mutex> lock(mu_);
      hook_ = std::move(hook);
      installed = hook_;
    }
    // Fire once in case messages were already waiting.
    if (installed) installed->on_post();
  }

 private:
  mutable std::mutex mu_;
  std::deque<T> queue_;
  std::shared_ptr<detail::ReceiverHook> hook_;
};

}  // namespace gdisim
