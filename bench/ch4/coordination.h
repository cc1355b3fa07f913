// Coordination primitives built on port-based programming (thesis §4.2.3).
//
// The thesis' CCR also offers multiple-item receivers, join, choice and
// interleave; the two Ch. 4 engines need only SingleItemReceiver.
//
// All handlers execute as dispatcher work items (active messages): they run
// on a pool thread's stack and must not block.
#pragma once

#include <functional>
#include <memory>

#include "ch4/port.h"

namespace gdisim {

/// Fires `handler` for every message posted to `port`. Persistent until the
/// returned registration object is destroyed.
template <typename T>
class SingleItemReceiver : public detail::ReceiverHook,
                           public std::enable_shared_from_this<SingleItemReceiver<T>> {
 public:
  using Handler = std::function<void(T)>;

  static std::shared_ptr<SingleItemReceiver> attach(Port<T>& port, Dispatcher& dispatcher,
                                                    Handler handler) {
    auto r = std::shared_ptr<SingleItemReceiver>(
        new SingleItemReceiver(port, dispatcher, std::move(handler)));
    port.attach(r);
    return r;
  }

  void on_post() override {
    // Drain greedily: each waiting message becomes one work item.
    while (auto msg = port_.try_take()) {
      auto self = this->shared_from_this();
      dispatcher_.post([self, m = std::move(*msg)]() mutable { self->handler_(std::move(m)); });
    }
  }

 private:
  SingleItemReceiver(Port<T>& port, Dispatcher& dispatcher, Handler handler)
      : port_(port), dispatcher_(dispatcher), handler_(std::move(handler)) {}

  Port<T>& port_;
  Dispatcher& dispatcher_;
  Handler handler_;
};

}  // namespace gdisim
