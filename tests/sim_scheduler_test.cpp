#include "sim/scheduler.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

namespace fabricsim::sim {
namespace {

TEST(Scheduler, StartsAtTimeZero) {
  Scheduler s;
  EXPECT_EQ(s.Now(), 0);
  EXPECT_EQ(s.PendingEvents(), 0u);
  EXPECT_EQ(s.ExecutedEvents(), 0u);
}

TEST(Scheduler, RunsEventsInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.ScheduleAt(30, [&] { order.push_back(3); });
  s.ScheduleAt(10, [&] { order.push_back(1); });
  s.ScheduleAt(20, [&] { order.push_back(2); });
  s.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.Now(), 30);
}

TEST(Scheduler, TiesBreakByInsertionOrder) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.ScheduleAt(5, [&order, i] { order.push_back(i); });
  }
  s.Run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Scheduler, ScheduleAfterUsesCurrentTime) {
  Scheduler s;
  SimTime fired_at = -1;
  s.ScheduleAt(100, [&] {
    s.ScheduleAfter(50, [&] { fired_at = s.Now(); });
  });
  s.Run();
  EXPECT_EQ(fired_at, 150);
}

TEST(Scheduler, PastTimesClampToNow) {
  Scheduler s;
  SimTime fired_at = -1;
  s.ScheduleAt(100, [&] {
    s.ScheduleAt(10, [&] { fired_at = s.Now(); });  // in the past
  });
  s.Run();
  EXPECT_EQ(fired_at, 100);
}

TEST(Scheduler, NegativeDelayClampsToZero) {
  Scheduler s;
  SimTime fired_at = -1;
  s.ScheduleAfter(-5, [&] { fired_at = s.Now(); });
  s.Run();
  EXPECT_EQ(fired_at, 0);
}

TEST(Scheduler, CancelPreventsExecution) {
  Scheduler s;
  bool ran = false;
  EventId id = s.ScheduleAt(10, [&] { ran = true; });
  EXPECT_TRUE(s.Cancel(id));
  s.Run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(s.ExecutedEvents(), 0u);
}

TEST(Scheduler, CancelIsIdempotent) {
  Scheduler s;
  EventId id = s.ScheduleAt(10, [] {});
  EXPECT_TRUE(s.Cancel(id));
  EXPECT_FALSE(s.Cancel(id));
}

TEST(Scheduler, CancelAfterFireReturnsFalse) {
  Scheduler s;
  EventId id = s.ScheduleAt(10, [] {});
  s.Run();
  EXPECT_FALSE(s.Cancel(id));
}

TEST(Scheduler, CancelUnknownIdReturnsFalse) {
  Scheduler s;
  EXPECT_FALSE(s.Cancel(0));
  EXPECT_FALSE(s.Cancel(12345));
}

TEST(Scheduler, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Scheduler s;
  std::vector<SimTime> fired;
  for (SimTime t : {10, 20, 30, 40}) {
    s.ScheduleAt(t, [&fired, &s] { fired.push_back(s.Now()); });
  }
  s.RunUntil(25);
  EXPECT_EQ(fired, (std::vector<SimTime>{10, 20}));
  EXPECT_EQ(s.Now(), 25);
  s.RunUntil(100);
  EXPECT_EQ(fired.size(), 4u);
  EXPECT_EQ(s.Now(), 100);
}

TEST(Scheduler, RunUntilIncludesBoundaryEvents) {
  Scheduler s;
  bool ran = false;
  s.ScheduleAt(25, [&] { ran = true; });
  s.RunUntil(25);
  EXPECT_TRUE(ran);
}

TEST(Scheduler, StepExecutesExactlyOne) {
  Scheduler s;
  int count = 0;
  s.ScheduleAt(1, [&] { ++count; });
  s.ScheduleAt(2, [&] { ++count; });
  EXPECT_TRUE(s.Step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(s.Step());
  EXPECT_EQ(count, 2);
  EXPECT_FALSE(s.Step());
}

TEST(Scheduler, EventsCanScheduleMoreEvents) {
  Scheduler s;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) s.ScheduleAfter(1, recurse);
  };
  s.ScheduleAt(0, recurse);
  s.Run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(s.Now(), 99);
}

TEST(Scheduler, RunWithLimitStopsEarly) {
  Scheduler s;
  int count = 0;
  for (int i = 0; i < 10; ++i) s.ScheduleAt(i, [&] { ++count; });
  EXPECT_EQ(s.Run(3), 3u);
  EXPECT_EQ(count, 3);
  EXPECT_EQ(s.PendingEvents(), 7u);
}

TEST(Scheduler, PendingEventsTracksCancellations) {
  Scheduler s;
  EventId a = s.ScheduleAt(1, [] {});
  s.ScheduleAt(2, [] {});
  EXPECT_EQ(s.PendingEvents(), 2u);
  s.Cancel(a);
  EXPECT_EQ(s.PendingEvents(), 1u);
}

TEST(Scheduler, CancelInsideEventCallback) {
  Scheduler s;
  bool second_ran = false;
  EventId second = s.ScheduleAt(20, [&] { second_ran = true; });
  s.ScheduleAt(10, [&] { s.Cancel(second); });
  s.Run();
  EXPECT_FALSE(second_ran);
}

TEST(Scheduler, RunUntilWithEmptyQueueStillAdvancesClock) {
  Scheduler s;
  s.RunUntil(500);
  EXPECT_EQ(s.Now(), 500);
}

TEST(SchedulerPool, CapacityIsHighWaterMarkNotEventCount) {
  Scheduler s;
  // A chain of 10k sequential events only ever has one pending at a time:
  // the pool must recycle a single slot, not grow per event.
  int remaining = 10000;
  std::function<void()> next = [&] {
    if (--remaining > 0) s.ScheduleAfter(1, next);
  };
  s.ScheduleAt(0, next);
  s.Run();
  EXPECT_EQ(s.ExecutedEvents(), 10000u);
  EXPECT_EQ(s.PoolCapacity(), 1u);
  EXPECT_EQ(s.PoolFree(), 1u);
}

TEST(SchedulerPool, FiredAndCancelledSlotsReturnToFreeList) {
  Scheduler s;
  std::vector<EventId> ids;
  for (int i = 0; i < 64; ++i) ids.push_back(s.ScheduleAt(i, [] {}));
  EXPECT_EQ(s.PoolCapacity(), 64u);
  EXPECT_EQ(s.PoolFree(), 0u);
  for (int i = 0; i < 32; ++i) EXPECT_TRUE(s.Cancel(ids[size_t(i)]));
  EXPECT_EQ(s.PoolFree(), 32u);
  s.Run();
  EXPECT_EQ(s.PoolFree(), 64u);
  EXPECT_EQ(s.PoolCapacity(), 64u);  // reused, never grown past high water
  for (int i = 0; i < 64; ++i) s.ScheduleAt(100 + i, [] {});
  EXPECT_EQ(s.PoolCapacity(), 64u);
  EXPECT_EQ(s.PoolFree(), 0u);
}

TEST(SchedulerPool, StaleIdCannotCancelRecycledSlot) {
  Scheduler s;
  bool second_ran = false;
  EventId first = s.ScheduleAt(10, [] {});
  EXPECT_TRUE(s.Cancel(first));
  // The replacement reuses the freed slot but carries a new generation.
  EventId second = s.ScheduleAt(20, [&] { second_ran = true; });
  EXPECT_NE(first, second);
  EXPECT_FALSE(s.Cancel(first));  // stale handle: harmless no-op
  s.Run();
  EXPECT_TRUE(second_ran);
}

TEST(SchedulerPool, LiveEventIdIsNeverZero) {
  Scheduler s;
  for (int i = 0; i < 100; ++i) {
    EventId id = s.ScheduleAt(i, [] {});
    EXPECT_NE(id, 0u);  // 0 is the "no event" sentinel
    s.Cancel(id);
  }
}

TEST(SchedulerPool, CancelDestroysCallbackImmediately) {
  Scheduler s;
  auto token = std::make_shared<int>(42);
  std::weak_ptr<int> observer = token;
  EventId id = s.ScheduleAt(10, [held = std::move(token)] { (void)held; });
  EXPECT_FALSE(observer.expired());
  s.Cancel(id);
  // The capture must be released on cancel, not at scheduler teardown —
  // long-lived simulations would otherwise pin every cancelled timer's state.
  EXPECT_TRUE(observer.expired());
}

// ---------------------------------------------------------------------------
// The (time, lane, lane_seq) order. Every pinned chain head and committed
// bench baseline was recorded under it, so these tests hold it in place.
// ---------------------------------------------------------------------------

TEST(SchedulerLanes, EqualTimesBreakTiesByLaneThenLaneSeq) {
  Scheduler s;
  const int a = s.AddLane();
  const int b = s.AddLane();
  std::vector<int> order;
  {
    Scheduler::LaneScope scope(s, b);
    s.ScheduleAt(5, [&] { order.push_back(20); });
  }
  {
    Scheduler::LaneScope scope(s, a);
    s.ScheduleAt(5, [&] { order.push_back(10); });
    s.ScheduleAt(5, [&] { order.push_back(11); });
  }
  s.ScheduleAt(5, [&] { order.push_back(0); });  // global lane
  {
    Scheduler::LaneScope scope(s, b);
    s.ScheduleAt(5, [&] { order.push_back(21); });
    s.ScheduleAt(4, [&] { order.push_back(-1); });  // earlier time wins
  }
  s.Run();
  EXPECT_EQ(order, (std::vector<int>{-1, 0, 10, 11, 20, 21}));
}

TEST(SchedulerLanes, ScheduleAtLaneUsesSenderKeyAndReceiverLane) {
  Scheduler s;
  const int sender = s.AddLane();
  const int receiver = s.AddLane();
  std::vector<int> order;
  int lane_in_callback = -1;
  {
    Scheduler::LaneScope scope(s, receiver);
    s.ScheduleAt(10, [&] { order.push_back(2); });
  }
  {
    Scheduler::LaneScope scope(s, sender);
    // Keyed (10, sender, 0): runs before the receiver's own event at 10.
    s.ScheduleAtLane(receiver, 10, [&] {
      order.push_back(1);
      lane_in_callback = s.CurrentLane();
      // Keyed in the receiver's lane, so it queues behind the receiver's
      // event above; in the sender's lane it would run first.
      s.ScheduleAt(10, [&] { order.push_back(3); });
    });
  }
  s.Run();
  EXPECT_EQ(lane_in_callback, receiver);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SchedulerLanes, ScheduleAtLaneOutOfRangeFallsBackToGlobalLane) {
  Scheduler s;
  int lane_in_callback = -1;
  s.ScheduleAtLane(7, 1, [&] { lane_in_callback = s.CurrentLane(); });
  s.Run();
  EXPECT_EQ(lane_in_callback, Scheduler::kGlobalLane);
}

TEST(SchedulerLanes, LaneScopeSetsAndRestoresTheSchedulingLane) {
  Scheduler s;
  const int a = s.AddLane();
  const int b = s.AddLane();
  EXPECT_EQ(s.CurrentLane(), Scheduler::kGlobalLane);
  {
    Scheduler::LaneScope outer(s, a);
    EXPECT_EQ(s.CurrentLane(), a);
    {
      Scheduler::LaneScope inner(s, b);
      EXPECT_EQ(s.CurrentLane(), b);
    }
    EXPECT_EQ(s.CurrentLane(), a);
    {
      Scheduler::LaneScope bogus(s, 99);  // out of range: global lane
      EXPECT_EQ(s.CurrentLane(), Scheduler::kGlobalLane);
    }
    // Dispatch switches to each event's lane and restores the caller's
    // lane when the run returns.
    int seen = -1;
    {
      Scheduler::LaneScope inner(s, b);
      s.ScheduleAt(1, [&] { seen = s.CurrentLane(); });
    }
    s.Run();
    EXPECT_EQ(seen, b);
    EXPECT_EQ(s.CurrentLane(), a);
  }
  EXPECT_EQ(s.CurrentLane(), Scheduler::kGlobalLane);
}

// A deterministic multi-lane workload: per-lane tickers with distinct
// periods, periodic cross-lane sends, and a global-lane control ticker.
struct LaneHarness {
  static constexpr SimTime kHorizon = 100'000;

  Scheduler sched;
  std::vector<int> lanes;
  std::vector<std::vector<std::pair<SimTime, int>>> traces;

  explicit LaneHarness(int n_lanes)
      : traces(static_cast<std::size_t>(n_lanes) + 1) {
    for (int i = 0; i < n_lanes; ++i) lanes.push_back(sched.AddLane());
    for (std::size_t li = 0; li < lanes.size(); ++li) {
      Scheduler::LaneScope scope(sched, lanes[li]);
      const SimTime phase = static_cast<SimTime>(7 * (li + 1));
      sched.ScheduleAt(phase, [this, li] { Tick(li, 0); });
    }
    sched.ScheduleAt(5'000, [this] { ControlTick(); });
  }

  void Tick(std::size_t li, int n) {
    const SimTime now = sched.Now();
    traces[li + 1].emplace_back(now, n);
    if (n % 5 == 2) {
      const std::size_t to = (li + 1) % lanes.size();
      sched.ScheduleAtLane(lanes[to], now + 131, [this, to, n] {
        traces[to + 1].emplace_back(sched.Now(), 1000 + n);
      });
    }
    if (now < kHorizon) {
      sched.ScheduleAfter(41 + static_cast<SimTime>(li),
                          [this, li, n] { Tick(li, n + 1); });
    }
  }

  void ControlTick() {
    traces[0].emplace_back(sched.Now(), -1);
    if (sched.Now() < kHorizon) {
      sched.ScheduleAfter(5'000, [this] { ControlTick(); });
    }
  }
};

// FNV-1a over every trace entry, the executed-event count and the end time.
std::uint64_t HarnessChecksum(int n_lanes) {
  LaneHarness h(n_lanes);
  h.sched.RunUntil(LaneHarness::kHorizon + 10'000);
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto mix = [&hash](std::int64_t v) {
    unsigned char bytes[sizeof(v)];
    std::memcpy(bytes, &v, sizeof(v));
    for (unsigned char c : bytes) {
      hash ^= c;
      hash *= 0x100000001b3ULL;
    }
  };
  for (const auto& trace : h.traces) {
    mix(static_cast<std::int64_t>(trace.size()));
    for (const auto& [t, n] : trace) {
      mix(t);
      mix(n);
    }
  }
  mix(static_cast<std::int64_t>(h.sched.ExecutedEvents()));
  mix(h.sched.Now());
  return hash;
}

TEST(SchedulerLanes, HarnessTraceChecksumIsPinned) {
  // Pinned from the scheduler that recorded the committed baselines; any
  // change to the event order moves it.
  EXPECT_EQ(HarnessChecksum(4), 14446646332750205017ULL);
  EXPECT_EQ(HarnessChecksum(2), 12951315789537303245ULL);
}

}  // namespace
}  // namespace fabricsim::sim
