#include "sim/event_loop.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace tracemod::sim {
namespace {

TEST(EventLoop, StartsAtEpoch) {
  EventLoop loop;
  EXPECT_EQ(loop.now(), kEpoch);
  EXPECT_EQ(loop.pending_count(), 0u);
}

TEST(EventLoop, DispatchesInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule(milliseconds(30), [&] { order.push_back(3); });
  loop.schedule(milliseconds(10), [&] { order.push_back(1); });
  loop.schedule(milliseconds(20), [&] { order.push_back(2); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now(), kEpoch + milliseconds(30));
}

TEST(EventLoop, FifoAmongEqualTimestamps) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    loop.schedule(milliseconds(5), [&order, i] { order.push_back(i); });
  }
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventLoop, ClockAdvancesToEventTime) {
  EventLoop loop;
  TimePoint seen{};
  loop.schedule(seconds(2), [&] { seen = loop.now(); });
  loop.run();
  EXPECT_EQ(seen, kEpoch + seconds(2));
}

TEST(EventLoop, CancelPreventsDispatch) {
  EventLoop loop;
  bool ran = false;
  EventId id = loop.schedule(milliseconds(1), [&] { ran = true; });
  EXPECT_TRUE(loop.pending(id));
  EXPECT_TRUE(loop.cancel(id));
  EXPECT_FALSE(loop.pending(id));
  loop.run();
  EXPECT_FALSE(ran);
}

TEST(EventLoop, CancelTwiceReturnsFalse) {
  EventLoop loop;
  EventId id = loop.schedule(milliseconds(1), [] {});
  EXPECT_TRUE(loop.cancel(id));
  EXPECT_FALSE(loop.cancel(id));
  EXPECT_FALSE(loop.cancel(0));
}

TEST(EventLoop, CancelAfterRunReturnsFalse) {
  EventLoop loop;
  EventId id = loop.schedule(milliseconds(1), [] {});
  loop.run();
  EXPECT_FALSE(loop.cancel(id));
}

TEST(EventLoop, RunUntilStopsAtBoundaryAndAdvancesClock) {
  EventLoop loop;
  int count = 0;
  loop.schedule(milliseconds(10), [&] { ++count; });
  loop.schedule(milliseconds(20), [&] { ++count; });
  loop.schedule(milliseconds(30), [&] { ++count; });
  loop.run_until(kEpoch + milliseconds(25));
  EXPECT_EQ(count, 2);
  EXPECT_EQ(loop.now(), kEpoch + milliseconds(25));
  loop.run();
  EXPECT_EQ(count, 3);
}

TEST(EventLoop, EventsScheduledDuringDispatchRun) {
  EventLoop loop;
  int depth = 0;
  loop.schedule(milliseconds(1), [&] {
    ++depth;
    loop.schedule(milliseconds(1), [&] { ++depth; });
  });
  loop.run();
  EXPECT_EQ(depth, 2);
  EXPECT_EQ(loop.now(), kEpoch + milliseconds(2));
}

TEST(EventLoop, PastSchedulingClampsToNow) {
  EventLoop loop;
  loop.run_until(kEpoch + seconds(1));
  TimePoint fired{};
  loop.schedule_at(kEpoch, [&] { fired = loop.now(); });
  loop.run();
  EXPECT_EQ(fired, kEpoch + seconds(1));
}

TEST(EventLoop, DispatchedCounter) {
  EventLoop loop;
  for (int i = 0; i < 7; ++i) loop.schedule(milliseconds(i), [] {});
  loop.run();
  EXPECT_EQ(loop.dispatched(), 7u);
}

TEST(EventLoop, QueueHighWaterIgnoresCancelledEntries) {
  // High water counts live events just after an insert; cancelled entries
  // still in the heap do not count.
  EventLoop loop;
  std::vector<EventId> ids;
  for (int i = 0; i < 3; ++i) {
    ids.push_back(loop.schedule(milliseconds(i + 1), [] {}));
  }
  loop.cancel(ids[0]);
  loop.cancel(ids[1]);
  loop.schedule(milliseconds(5), [] {});
  EXPECT_EQ(loop.queue_size(), 4u);  // two dead entries not yet popped
  EXPECT_EQ(loop.queue_high_water(), 3u);
  loop.run();
  EXPECT_EQ(loop.queue_high_water(), 3u);
}

TEST(EventLoop, CancelHeavyWorkloadKeepsQueueBounded) {
  // Regression for heap rot: a repeatedly re-armed timer (the dominant
  // cancel pattern -- TCP retransmission timers, NFS retry timers) used to
  // leave every cancelled entry in the priority queue until its timestamp
  // came up.  Compaction must keep the queue proportional to the *live*
  // event count, not the cancel history.
  EventLoop loop;
  Timer t(loop);
  std::size_t peak = 0;
  for (int i = 0; i < 100'000; ++i) {
    t.arm(seconds(3600) + milliseconds(i), [] {});
    peak = std::max(peak, loop.queue_size());
  }
  // Live events: exactly the one armed timer.  The queue may carry some
  // dead entries between compactions, but never more than the compaction
  // threshold's worth.
  EXPECT_EQ(loop.pending_count(), 1u);
  EXPECT_LE(loop.queue_size(), 64u);
  EXPECT_LE(peak, 256u);

  int fired = 0;
  t.cancel();
  t.arm(milliseconds(1), [&] { ++fired; });
  loop.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(loop.queue_size(), 0u);
}

TEST(EventLoop, CompactionPreservesDispatchOrder) {
  EventLoop loop;
  // Arm-and-cancel enough background events to force several compactions,
  // interleaved with live events whose order we then verify.
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    loop.schedule(milliseconds(100 + i), [&order, i] { order.push_back(i); });
  }
  for (int i = 0; i < 1000; ++i) {
    const EventId id = loop.schedule(seconds(10), [] {});
    loop.cancel(id);
  }
  loop.run();
  ASSERT_EQ(order.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Timer, ArmAndFire) {
  EventLoop loop;
  Timer t(loop);
  int fired = 0;
  t.arm(milliseconds(5), [&] { ++fired; });
  EXPECT_TRUE(t.armed());
  loop.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(t.armed());
}

TEST(Timer, RearmReplacesPrevious) {
  EventLoop loop;
  Timer t(loop);
  int which = 0;
  t.arm(milliseconds(5), [&] { which = 1; });
  t.arm(milliseconds(10), [&] { which = 2; });
  loop.run();
  EXPECT_EQ(which, 2);
  EXPECT_EQ(loop.now(), kEpoch + milliseconds(10));
}

TEST(Timer, CancelStopsFire) {
  EventLoop loop;
  Timer t(loop);
  bool fired = false;
  t.arm(milliseconds(5), [&] { fired = true; });
  t.cancel();
  loop.run();
  EXPECT_FALSE(fired);
}

TEST(Timer, DestructorCancels) {
  EventLoop loop;
  bool fired = false;
  {
    Timer t(loop);
    t.arm(milliseconds(5), [&] { fired = true; });
  }
  loop.run();
  EXPECT_FALSE(fired);
}

TEST(TimeHelpers, Conversions) {
  EXPECT_EQ(seconds(1), milliseconds(1000));
  EXPECT_EQ(milliseconds(1), microseconds(1000));
  EXPECT_DOUBLE_EQ(to_seconds(milliseconds(2500)), 2.5);
  EXPECT_EQ(from_seconds(0.25), milliseconds(250));
  EXPECT_DOUBLE_EQ(to_milliseconds(microseconds(1500)), 1.5);
}

}  // namespace
}  // namespace tracemod::sim
