// Direct tests of the mailbox matching queue.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>

#include "sim/mailbox.hpp"

namespace chaos::sim {
namespace {

Message make(int src, int tag, int value) {
  Message m;
  m.src = src;
  m.tag = tag;
  m.payload.resize(sizeof(int));
  std::memcpy(m.payload.data(), &value, sizeof(int));
  return m;
}

int value_of(const Message& m) {
  int v = 0;
  std::memcpy(&v, m.payload.data(), sizeof(int));
  return v;
}

TEST(Mailbox, PopMatchesSrcAndTag) {
  Mailbox mb;
  std::atomic<bool> aborted{false};
  std::atomic<bool> live{false};  // the sender never exits
  mb.push(make(1, 10, 100));
  mb.push(make(2, 10, 200));
  mb.push(make(1, 20, 300));
  EXPECT_EQ(value_of(*mb.pop(1, 20, aborted, live)), 300);
  EXPECT_EQ(value_of(*mb.pop(2, 10, aborted, live)), 200);
  EXPECT_EQ(value_of(*mb.pop(1, 10, aborted, live)), 100);
  EXPECT_EQ(mb.pending(), 0u);
}

TEST(Mailbox, FifoWithinSameSrcTag) {
  Mailbox mb;
  std::atomic<bool> aborted{false};
  std::atomic<bool> live{false};  // the sender never exits
  for (int i = 0; i < 5; ++i) mb.push(make(0, 1, i));
  for (int i = 0; i < 5; ++i)
    EXPECT_EQ(value_of(*mb.pop(0, 1, aborted, live)), i);
}

TEST(Mailbox, BlockingPopWakesOnPush) {
  Mailbox mb;
  std::atomic<bool> aborted{false};
  std::atomic<bool> live{false};  // the sender never exits
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    mb.push(make(3, 7, 77));
  });
  EXPECT_EQ(value_of(*mb.pop(3, 7, aborted, live)), 77);
  producer.join();
}

TEST(Mailbox, AbortUnblocksPop) {
  Mailbox mb;
  std::atomic<bool> aborted{false};
  std::atomic<bool> live{false};  // the sender never exits
  std::thread aborter([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    aborted.store(true);
    mb.notify_abort();
  });
  EXPECT_THROW(mb.pop(0, 0, aborted, live), Aborted);
  aborter.join();
}

TEST(Mailbox, ExitedSenderEndsTheWait) {
  // A queued match is still delivered after its sender exited; once none
  // is left, the blocked pop returns empty instead of waiting forever.
  Mailbox mb;
  std::atomic<bool> aborted{false};
  std::atomic<bool> exited{false};
  mb.push(make(4, 9, 49));
  exited.store(true);
  EXPECT_EQ(value_of(*mb.pop(4, 9, aborted, exited)), 49);
  exited.store(false);
  std::thread sender([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    exited.store(true);
    mb.notify_exit();
  });
  EXPECT_FALSE(mb.pop(4, 9, aborted, exited).has_value());
  sender.join();
}

TEST(Mailbox, TryPopReturnsNulloptWithoutBlocking) {
  Mailbox mb;
  EXPECT_FALSE(mb.try_pop(0, 0, 1e9).has_value());
  mb.push(make(1, 10, 100));
  EXPECT_FALSE(mb.try_pop(1, 11, 1e9).has_value());  // tag mismatch
  EXPECT_FALSE(mb.try_pop(2, 10, 1e9).has_value());  // src mismatch
  EXPECT_EQ(mb.pending(), 1u);
}

TEST(Mailbox, TryPopRemovesExactMatch) {
  Mailbox mb;
  std::atomic<bool> aborted{false};
  std::atomic<bool> live{false};  // the sender never exits
  mb.push(make(1, 10, 100));
  mb.push(make(1, 20, 200));
  auto m = mb.try_pop(1, 20, 1e9);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(value_of(*m), 200);
  EXPECT_EQ(mb.pending(), 1u);
  EXPECT_EQ(value_of(*mb.pop(1, 10, aborted, live)), 100);
}

TEST(Mailbox, TryPopIsFifoWithinSameSrcTag) {
  Mailbox mb;
  for (int i = 0; i < 3; ++i) mb.push(make(0, 1, i));
  for (int i = 0; i < 3; ++i) {
    auto m = mb.try_pop(0, 1, 1e9);
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(value_of(*m), i);
  }
  EXPECT_FALSE(mb.try_pop(0, 1, 1e9).has_value());
}

TEST(Mailbox, TryPopRespectsModeledArrivalTime) {
  // A physically queued message is invisible to the probe until the
  // caller's virtual clock reaches its arrival time.
  Mailbox mb;
  Message m = make(0, 1, 42);
  m.arrival = 5.0;
  mb.push(std::move(m));
  EXPECT_FALSE(mb.try_pop(0, 1, 4.99).has_value());  // still in transit
  EXPECT_EQ(mb.pending(), 1u);
  auto got = mb.try_pop(0, 1, 5.0);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(value_of(*got), 42);
}

TEST(Mailbox, PendingCountsQueued) {
  Mailbox mb;
  mb.push(make(0, 0, 1));
  mb.push(make(0, 1, 2));
  EXPECT_EQ(mb.pending(), 2u);
}

}  // namespace
}  // namespace chaos::sim
