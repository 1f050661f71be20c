#include "sim/cpu.h"

#include <gtest/gtest.h>

#include <vector>

namespace fabricsim::sim {
namespace {

TEST(Cpu, SingleCoreRunsJobsSequentially) {
  Scheduler s;
  Cpu cpu(s, 1);
  std::vector<SimTime> done;
  for (int i = 0; i < 3; ++i) {
    cpu.Submit(100, [&] { done.push_back(s.Now()); });
  }
  s.Run();
  EXPECT_EQ(done, (std::vector<SimTime>{100, 200, 300}));
}

TEST(Cpu, MultiCoreRunsJobsInParallel) {
  Scheduler s;
  Cpu cpu(s, 4);
  std::vector<SimTime> done;
  for (int i = 0; i < 4; ++i) {
    cpu.Submit(100, [&] { done.push_back(s.Now()); });
  }
  s.Run();
  EXPECT_EQ(done, (std::vector<SimTime>(4, 100)));
}

TEST(Cpu, FifthJobQueuesBehindFourCores) {
  Scheduler s;
  Cpu cpu(s, 4);
  SimTime fifth = 0;
  for (int i = 0; i < 4; ++i) cpu.Submit(100, [] {});
  cpu.Submit(50, [&] { fifth = s.Now(); });
  s.Run();
  EXPECT_EQ(fifth, 150);  // waits for a core, then runs 50
}

TEST(Cpu, SpeedFactorScalesDuration) {
  Scheduler s;
  Cpu slow(s, 1, 0.5);
  SimTime done = 0;
  slow.Submit(100, [&] { done = s.Now(); });
  s.Run();
  EXPECT_EQ(done, 200);  // half speed -> twice the time
}

TEST(Cpu, ZeroCostJobCompletes) {
  Scheduler s;
  Cpu cpu(s, 1);
  bool ran = false;
  cpu.Submit(0, [&] { ran = true; });
  s.Run();
  EXPECT_TRUE(ran);
}

TEST(Cpu, NegativeCostTreatedAsZero) {
  Scheduler s;
  Cpu cpu(s, 1);
  SimTime done = -1;
  cpu.Submit(-50, [&] { done = s.Now(); });
  s.Run();
  EXPECT_EQ(done, 0);
}

TEST(Cpu, HighPriorityJumpsQueue) {
  Scheduler s;
  Cpu cpu(s, 1);
  std::vector<int> order;
  cpu.Submit(100, [&] { order.push_back(0); });          // runs immediately
  cpu.Submit(100, [&] { order.push_back(1); });          // queued normal
  cpu.Submit(100, [&] { order.push_back(2); }, true);    // queued high
  s.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 2, 1}));
}

TEST(Cpu, HighPriorityDoesNotPreemptRunningJob) {
  Scheduler s;
  Cpu cpu(s, 1);
  SimTime normal_done = 0, high_done = 0;
  cpu.Submit(100, [&] { normal_done = s.Now(); });
  cpu.Submit(10, [&] { high_done = s.Now(); }, true);
  s.Run();
  EXPECT_EQ(normal_done, 100);
  EXPECT_EQ(high_done, 110);
}

TEST(Cpu, QueueLengthAndBusyCores) {
  Scheduler s;
  Cpu cpu(s, 2);
  for (int i = 0; i < 5; ++i) cpu.Submit(100, [] {});
  EXPECT_EQ(cpu.BusyCores(), 2);
  EXPECT_EQ(cpu.QueueLength(), 3u);
  s.Run();
  EXPECT_EQ(cpu.BusyCores(), 0);
  EXPECT_EQ(cpu.QueueLength(), 0u);
  EXPECT_EQ(cpu.CompletedJobs(), 5u);
}

TEST(Cpu, UtilizationReflectsLoad) {
  Scheduler s;
  Cpu cpu(s, 2);
  cpu.Submit(100, [] {});
  s.RunUntil(200);
  // One core busy for 100 of 200ns over 2 cores -> 25%.
  EXPECT_NEAR(cpu.Utilization(), 0.25, 0.01);
}

/// Runs `s` to each of `instants` in turn and returns `cpu.BusyTime()` read
/// there: a window's busy time is the difference of two such reads, which
/// is how attribution measures utilization over the measurement window.
std::vector<SimDuration> BusyTimesAt(Scheduler& s, const Cpu& cpu,
                                     const std::vector<SimTime>& instants) {
  std::vector<SimDuration> out;
  for (const SimTime t : instants) {
    s.RunUntil(t);
    out.push_back(cpu.BusyTime());
  }
  return out;
}

TEST(Cpu, WindowedUtilizationIsolatesBusyInterval) {
  Scheduler s;
  Cpu cpu(s, 1);
  // Busy exactly over [100, 300): idle before and after.
  s.ScheduleAt(100, [&] { cpu.Submit(200, [] {}); });
  const auto busy = BusyTimesAt(s, cpu, {100, 200, 300, 400, 500});
  EXPECT_EQ(busy[0], 0);             // [0, 100) idle
  EXPECT_EQ(busy[2] - busy[0], 200); // [100, 300) fully busy
  EXPECT_EQ(busy[4] - busy[2], 0);   // [300, 500) idle
  EXPECT_EQ(busy[3] - busy[1], 100); // half of [200, 400) busy
  // Whole-run utilization agrees: 200 of 500.
  EXPECT_NEAR(cpu.Utilization(), 0.4, 1e-9);
}

TEST(Cpu, WindowedUtilizationCountsAllCores) {
  Scheduler s;
  Cpu cpu(s, 2);
  cpu.Submit(100, [] {});  // core 0: [0, 100)
  cpu.Submit(300, [] {});  // core 1: [0, 300)
  const auto busy = BusyTimesAt(s, cpu, {100, 300, 400});
  EXPECT_EQ(busy[0], 200);            // both busy over [0, 100)
  EXPECT_EQ(busy[1] - busy[0], 200);  // one of two over [100, 300)
  EXPECT_EQ(busy[2], 400);            // 400 of 800 core-ns
  EXPECT_NEAR(cpu.Utilization(), 0.5, 1e-9);
}

TEST(Cpu, WindowedUtilizationHandlesDegenerateWindows) {
  Scheduler s;
  Cpu cpu(s, 1);
  cpu.Submit(100, [] {});
  const auto busy = BusyTimesAt(s, cpu, {50, 50, 200, 1000});
  EXPECT_EQ(busy[1] - busy[0], 0);  // empty window
  // Idle time after the last job accrues nothing.
  EXPECT_EQ(busy[2], 100);
  EXPECT_EQ(busy[3], 100);
  EXPECT_NEAR(cpu.Utilization(), 0.1, 1e-9);
}

TEST(Cpu, WindowedUtilizationSeesInProgressJob) {
  Scheduler s;
  Cpu cpu(s, 1);
  cpu.Submit(1000, [] {});
  const auto busy = BusyTimesAt(s, cpu, {100, 300, 400});  // job running
  EXPECT_EQ(busy[2], 400);
  EXPECT_EQ(busy[1] - busy[0], 200);
  EXPECT_EQ(cpu.CompletedJobs(), 0u);
}

TEST(Cpu, CompletionSubmittingWorkQueuesBehindWaiters) {
  Scheduler s;
  Cpu cpu(s, 1);
  std::vector<int> order;
  cpu.Submit(10, [&] {
    order.push_back(0);
    cpu.Submit(10, [&] { order.push_back(2); });
  });
  cpu.Submit(10, [&] { order.push_back(1); });
  s.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(Cpu, ManyJobsAggregateTime) {
  Scheduler s;
  Cpu cpu(s, 4);
  int done = 0;
  for (int i = 0; i < 100; ++i) cpu.Submit(10, [&] { ++done; });
  s.Run();
  EXPECT_EQ(done, 100);
  // 100 jobs x 10ns over 4 cores = 250ns makespan.
  EXPECT_EQ(s.Now(), 250);
}

}  // namespace
}  // namespace fabricsim::sim
