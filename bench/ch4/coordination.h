// Coordination primitives built on port-based programming (thesis §4.2.3).
//
// These mirror the CCR-style primitives the thesis lists:
//   * SingleItemReceiver   — handler per message on one port
//   * MultipleItemReceiver — handler once n messages (successes + failures)
//                            have accumulated; both payload sets delivered
//   * JoinReceiver         — handler when one message is present on each of
//                            two ports
//   * Choice               — two handlers racing over a variant port
//   * Interleave           — teardown / exclusive / concurrent execution
//                            groups guarding shared agent state
//
// All handlers execute as dispatcher work items (active messages): they run
// on a pool thread's stack and must not block.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <variant>
#include <vector>

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

/// Collects `expected` messages across a success port and a failure port and
/// then fires the handler exactly once with both payload vectors.
template <typename M, typename E>
class MultipleItemReceiver
    : public std::enable_shared_from_this<MultipleItemReceiver<M, E>> {
 public:
  using Handler = std::function<void(std::vector<M>, std::vector<E>)>;

  static std::shared_ptr<MultipleItemReceiver> attach(Port<M>& successes, Port<E>& failures,
                                                      std::size_t expected,
                                                      Dispatcher& dispatcher, Handler handler) {
    auto r = std::shared_ptr<MultipleItemReceiver>(
        new MultipleItemReceiver(successes, failures, expected, dispatcher, std::move(handler)));
    successes.attach(std::make_shared<Hook>(r));
    failures.attach(std::make_shared<Hook>(r));
    r->evaluate();
    return r;
  }

 private:
  struct Hook : detail::ReceiverHook {
    explicit Hook(std::shared_ptr<MultipleItemReceiver> owner) : owner_(std::move(owner)) {}
    void on_post() override { owner_->evaluate(); }
    std::shared_ptr<MultipleItemReceiver> owner_;
  };

  MultipleItemReceiver(Port<M>& successes, Port<E>& failures, std::size_t expected,
                       Dispatcher& dispatcher, Handler handler)
      : successes_(successes),
        failures_(failures),
        expected_(expected),
        dispatcher_(dispatcher),
        handler_(std::move(handler)) {}

  void evaluate() {
    std::lock_guard<std::mutex> lock(mu_);
    if (fired_) return;
    while (collected_m_.size() + collected_e_.size() < expected_) {
      if (auto m = successes_.try_take()) {
        collected_m_.push_back(std::move(*m));
        continue;
      }
      if (auto e = failures_.try_take()) {
        collected_e_.push_back(std::move(*e));
        continue;
      }
      return;  // not enough yet
    }
    fired_ = true;
    auto self = this->shared_from_this();
    dispatcher_.post([self, ms = std::move(collected_m_), es = std::move(collected_e_)]() mutable {
      self->handler_(std::move(ms), std::move(es));
    });
  }

  Port<M>& successes_;
  Port<E>& failures_;
  std::size_t expected_;
  Dispatcher& dispatcher_;
  Handler handler_;
  std::mutex mu_;
  std::vector<M> collected_m_;
  std::vector<E> collected_e_;
  bool fired_ = false;
};

/// Fires once when one message is available on each of two ports.
template <typename A, typename B>
class JoinReceiver : public std::enable_shared_from_this<JoinReceiver<A, B>> {
 public:
  using Handler = std::function<void(A, B)>;

  static std::shared_ptr<JoinReceiver> attach(Port<A>& pa, Port<B>& pb, Dispatcher& dispatcher,
                                              Handler handler) {
    auto r = std::shared_ptr<JoinReceiver>(new JoinReceiver(pa, pb, dispatcher, std::move(handler)));
    pa.attach(std::make_shared<HookA>(r));
    pb.attach(std::make_shared<HookB>(r));
    r->evaluate();
    return r;
  }

 private:
  struct HookA : detail::ReceiverHook {
    explicit HookA(std::shared_ptr<JoinReceiver> o) : o_(std::move(o)) {}
    void on_post() override { o_->evaluate(); }
    std::shared_ptr<JoinReceiver> o_;
  };
  struct HookB : detail::ReceiverHook {
    explicit HookB(std::shared_ptr<JoinReceiver> o) : o_(std::move(o)) {}
    void on_post() override { o_->evaluate(); }
    std::shared_ptr<JoinReceiver> o_;
  };

  JoinReceiver(Port<A>& pa, Port<B>& pb, Dispatcher& dispatcher, Handler handler)
      : pa_(pa), pb_(pb), dispatcher_(dispatcher), handler_(std::move(handler)) {}

  void evaluate() {
    std::lock_guard<std::mutex> lock(mu_);
    while (pa_.size() > 0 && pb_.size() > 0) {
      auto a = pa_.try_take();
      auto b = pb_.try_take();
      if (!a || !b) {
        // One side raced away; put back is impossible with this queue, so
        // fire only when both were actually obtained.
        if (a) stash_a_.push_back(std::move(*a));
        if (b) stash_b_.push_back(std::move(*b));
        break;
      }
      auto self = this->shared_from_this();
      dispatcher_.post([self, av = std::move(*a), bv = std::move(*b)]() mutable {
        self->handler_(std::move(av), std::move(bv));
      });
    }
    // Re-pair any stashed leftovers.
    while (!stash_a_.empty() && !stash_b_.empty()) {
      auto a = std::move(stash_a_.back());
      stash_a_.pop_back();
      auto b = std::move(stash_b_.back());
      stash_b_.pop_back();
      auto self = this->shared_from_this();
      dispatcher_.post([self, av = std::move(a), bv = std::move(b)]() mutable {
        self->handler_(std::move(av), std::move(bv));
      });
    }
  }

  Port<A>& pa_;
  Port<B>& pb_;
  Dispatcher& dispatcher_;
  Handler handler_;
  std::mutex mu_;
  std::vector<A> stash_a_;
  std::vector<B> stash_b_;
};

/// Choice over a variant port: handler X consumes messages of type M,
/// handler Y messages of type N.
template <typename M, typename N>
class Choice : public detail::ReceiverHook, public std::enable_shared_from_this<Choice<M, N>> {
 public:
  using Message = std::variant<M, N>;
  using HandlerM = std::function<void(M)>;
  using HandlerN = std::function<void(N)>;

  static std::shared_ptr<Choice> attach(Port<Message>& port, Dispatcher& dispatcher,
                                        HandlerM hm, HandlerN hn) {
    auto r = std::shared_ptr<Choice>(new Choice(port, dispatcher, std::move(hm), std::move(hn)));
    port.attach(r);
    return r;
  }

  void on_post() override {
    while (auto msg = port_.try_take()) {
      auto self = this->shared_from_this();
      dispatcher_.post([self, m = std::move(*msg)]() mutable {
        if (std::holds_alternative<M>(m)) {
          self->hm_(std::get<M>(std::move(m)));
        } else {
          self->hn_(std::get<N>(std::move(m)));
        }
      });
    }
  }

 private:
  Choice(Port<Message>& port, Dispatcher& dispatcher, HandlerM hm, HandlerN hn)
      : port_(port), dispatcher_(dispatcher), hm_(std::move(hm)), hn_(std::move(hn)) {}

  Port<Message>& port_;
  Dispatcher& dispatcher_;
  HandlerM hm_;
  HandlerN hn_;
};

/// Interleave execution-policy guard (thesis §4.2.3): wraps handlers so that
///   * concurrent handlers run in parallel with each other,
///   * exclusive handlers run alone,
///   * teardown handlers run alone and at most once.
class Interleave {
 public:
  Interleave() = default;

  /// Wraps a handler into the concurrent group.
  template <typename F>
  auto concurrent(F f) {
    return [this, f = std::move(f)](auto&&... args) {
      std::shared_lock<std::shared_mutex> lock(mu_);
      if (torn_down_.load(std::memory_order_acquire)) return;
      f(std::forward<decltype(args)>(args)...);
    };
  }

  /// Wraps a handler into the exclusive group.
  template <typename F>
  auto exclusive(F f) {
    return [this, f = std::move(f)](auto&&... args) {
      std::unique_lock<std::shared_mutex> lock(mu_);
      if (torn_down_.load(std::memory_order_acquire)) return;
      f(std::forward<decltype(args)>(args)...);
    };
  }

  /// Wraps a handler into the teardown group: exclusive and at-most-once;
  /// afterwards all other handlers become no-ops.
  template <typename F>
  auto teardown(F f) {
    return [this, f = std::move(f)](auto&&... args) {
      std::unique_lock<std::shared_mutex> lock(mu_);
      bool expected = false;
      if (!torn_down_.compare_exchange_strong(expected, true)) return;
      f(std::forward<decltype(args)>(args)...);
    };
  }

  bool torn_down() const { return torn_down_.load(std::memory_order_acquire); }

 private:
  std::shared_mutex mu_;
  std::atomic<bool> torn_down_{false};
};

}  // namespace gdisim
