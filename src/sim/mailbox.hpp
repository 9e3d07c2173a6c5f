// Per-rank mailbox: a thread-safe queue with (source, tag) matching.
//
// Receivers block until a matching message is present. Matching is by exact
// (src, tag) pair — the CHAOS runtime always knows who it is waiting for
// (schedules carry per-processor send/fetch sizes), so wildcard receives are
// unnecessary and their nondeterminism is deliberately not offered.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>

#include "sim/message.hpp"
#include "util/check.hpp"

namespace chaos::sim {

/// Thrown in secondary ranks when the machine aborts because another rank
/// raised an error; Machine::run reports the primary error instead.
class Aborted : public Error {
 public:
  Aborted() : Error("rank aborted: another rank raised an error") {}
};

class Mailbox {
 public:
  void push(Message m) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (jitter_spread_ > 0.0) {
        // Delivery-permutation hook (arrival-order fuzzing): delay this
        // message's modeled arrival by a deterministic hash of (seed, src,
        // tag). Different seeds permute the arrival order of concurrently
        // in-flight messages; data is untouched, so order-independence
        // tests can assert bitwise equality across permutations. The hash
        // depends only on the message identity, never on real-time push
        // order, so a fuzzed run is still deterministic.
        std::uint64_t h = jitter_seed_;
        h ^= static_cast<std::uint64_t>(m.src) * 0x9e3779b97f4a7c15ull;
        h ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(m.tag)) *
             0xbf58476d1ce4e5b9ull;
        h ^= h >> 31;
        h *= 0x94d049bb133111ebull;
        h ^= h >> 29;
        const double unit =
            static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);
        m.arrival += jitter_spread_ * unit;
      }
      q_.push_back(std::move(m));
    }
    cv_.notify_all();
  }

  /// Arm (or disarm, spread <= 0) the delivery-permutation hook applied by
  /// push(). Call only while no rank is communicating.
  void set_delivery_jitter(std::uint64_t seed, double spread) {
    std::lock_guard<std::mutex> lk(mu_);
    jitter_seed_ = seed;
    jitter_spread_ = spread;
  }

  /// Earliest modeled arrival among queued messages matching (src, tag), or
  /// nullopt when none is physically queued yet. Never consumes, never
  /// blocks — the comm engine's arrival-driven wait uses it to decide how
  /// far to advance the receiver's virtual clock.
  std::optional<double> peek_arrival(int src, int tag) {
    std::lock_guard<std::mutex> lk(mu_);
    std::optional<double> best;
    for (const Message& m : q_) {
      if (m.src == src && m.tag == tag)
        if (!best || m.arrival < *best) best = m.arrival;
    }
    return best;
  }

  /// Blocks until a message with exactly this (src, tag) arrives, removes it
  /// from the queue, and returns it. Throws Aborted if the machine fails.
  /// Returns nullopt once `src_exited` is set with no match queued: the
  /// sender has returned, so the message can never come. (The flag is
  /// read before the scan, and a sender pushes before it exits, so a
  /// queued match is always found first.)
  std::optional<Message> pop(int src, int tag, const std::atomic<bool>& aborted,
                             const std::atomic<bool>& src_exited) {
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
      if (aborted.load(std::memory_order_relaxed)) throw Aborted{};
      const bool gone = src_exited.load(std::memory_order_acquire);
      for (auto it = q_.begin(); it != q_.end(); ++it) {
        if (it->src == src && it->tag == tag) {
          Message m = std::move(*it);
          q_.erase(it);
          return m;
        }
      }
      if (gone) return std::nullopt;
      cv_.wait(lk);
    }
  }

  /// Non-blocking pop: removes and returns a message matching exactly
  /// (src, tag) whose modeled arrival time is not after `now`;
  /// std::nullopt otherwise. Never blocks and never throws — the comm
  /// engine uses it to make progress opportunistically between posted
  /// operations. The arrival gate keeps virtual time honest: a message
  /// that is physically queued (the sender thread ran ahead in real time)
  /// but still in transit on the modeled network is not visible yet, so a
  /// probe can never pull virtual time forward ahead of the receiver's
  /// own clock.
  std::optional<Message> try_pop(int src, int tag, double now) {
    std::lock_guard<std::mutex> lk(mu_);
    for (auto it = q_.begin(); it != q_.end(); ++it) {
      if (it->src == src && it->tag == tag) {
        if (it->arrival > now) return std::nullopt;
        Message m = std::move(*it);
        q_.erase(it);
        return m;
      }
    }
    return std::nullopt;
  }

  /// Wakes any blocked receiver so it can observe the abort flag.
  void notify_abort() { cv_.notify_all(); }

  /// Wakes any blocked receiver so it can observe a sender's exit flag.
  /// Takes the lock so a receiver between its flag read and its wait
  /// cannot miss the wakeup.
  void notify_exit() {
    std::lock_guard<std::mutex> lk(mu_);
    cv_.notify_all();
  }

  /// Number of queued (unreceived) messages; used by tests.
  std::size_t pending() {
    std::lock_guard<std::mutex> lk(mu_);
    return q_.size();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Message> q_;
  std::uint64_t jitter_seed_ = 0;
  double jitter_spread_ = 0.0;
};

}  // namespace chaos::sim
