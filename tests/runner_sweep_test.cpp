// The parallel sweep runner's contract: fanning independent sweep points
// across host worker threads changes wall-clock only. Simulated results come
// back in submission order and are bit-identical to a serial run, so the
// bench JSON the regression gate compares is byte-equal at any --jobs value.
#include "runner/sweep_runner.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench/recorder.h"
#include "fabric/experiment.h"
#include "runner/thread_pool.h"

namespace fabricsim::runner {
namespace {

fabric::ExperimentConfig ShortConfig(fabric::OrderingType ordering,
                                     double rate) {
  // Short but non-trivial: a few hundred transactions, several blocks.
  fabric::ExperimentConfig config = fabric::StandardConfig(ordering, 0, rate);
  config.warmup = sim::FromSeconds(3);
  config.workload.duration = sim::FromSeconds(6);
  config.drain = sim::FromSeconds(6);
  return config;
}

// Every consenter type, two rates each — enough points that a 4-thread run
// actually interleaves work.
std::vector<SweepPoint> MakePoints() {
  std::vector<SweepPoint> points;
  for (auto ordering : {fabric::OrderingType::kSolo,
                        fabric::OrderingType::kKafka,
                        fabric::OrderingType::kRaft}) {
    for (double rate : {100.0, 140.0}) {
      const std::string name =
          ordering == fabric::OrderingType::kSolo    ? "Solo"
          : ordering == fabric::OrderingType::kKafka ? "Kafka"
                                                     : "Raft";
      points.push_back({ShortConfig(ordering, rate),
                        name + "@" + std::to_string(static_cast<int>(rate))});
    }
  }
  return points;
}

std::vector<PointOutcome> RunWithJobs(int jobs) {
  SweepOptions options;
  options.jobs = jobs;
  return RunSweep(MakePoints(), options);
}

// Serializes outcomes the way the bench harness does and returns the
// deterministic ("points" + "config") portion of the document. Host wall
// times are excluded (zeroed) — they are the only thing allowed to differ.
std::string RecorderFingerprint(const std::vector<PointOutcome>& outcomes) {
  bench::Recorder recorder("runner_sweep_test", "test", 1, 1);
  for (const PointOutcome& outcome : outcomes) {
    bench::HostSample host;  // wall_s deliberately empty
    host.sched_events = outcome.result.sched_events;
    recorder.AddPoint(outcome.label, outcome.result, host);
  }
  bench::Json doc = recorder.ToJson();
  return doc["points"].Dump() + doc["config"].Dump() +
         doc["deterministic"].Dump();
}

TEST(RunnerSweep, ParallelIsBitIdenticalToSerialInSubmissionOrder) {
  const std::vector<SweepPoint> expected_order = MakePoints();
  const auto serial = RunWithJobs(1);
  const auto parallel = RunWithJobs(4);

  ASSERT_EQ(serial.size(), expected_order.size());
  ASSERT_EQ(parallel.size(), expected_order.size());
  for (std::size_t i = 0; i < expected_order.size(); ++i) {
    SCOPED_TRACE(expected_order[i].label);
    // Submission order is preserved regardless of completion order.
    EXPECT_EQ(serial[i].label, expected_order[i].label);
    EXPECT_EQ(parallel[i].label, expected_order[i].label);
    EXPECT_TRUE(serial[i].deterministic);
    EXPECT_TRUE(parallel[i].deterministic);

    const fabric::ExperimentResult& s = serial[i].result;
    const fabric::ExperimentResult& p = parallel[i].result;
    EXPECT_EQ(s.chain_head_hex, p.chain_head_hex);
    EXPECT_EQ(s.chain_height, p.chain_height);
    EXPECT_EQ(s.sched_events, p.sched_events);
    EXPECT_EQ(s.report.end_to_end.completed, p.report.end_to_end.completed);
    EXPECT_EQ(s.report.end_to_end.throughput_tps,
              p.report.end_to_end.throughput_tps);
    EXPECT_EQ(s.report.end_to_end.p99_latency_s,
              p.report.end_to_end.p99_latency_s);
    EXPECT_EQ(s.report.blocks, p.report.blocks);
  }

  // The full serialized form the regression gate compares — every simulated
  // field of every point — must be byte-equal.
  EXPECT_EQ(RecorderFingerprint(serial), RecorderFingerprint(parallel));
}

TEST(RunnerSweep, MoreJobsThanPointsIsFine) {
  std::vector<SweepPoint> points;
  points.push_back({ShortConfig(fabric::OrderingType::kSolo, 100), "only"});
  SweepOptions options;
  options.jobs = static_cast<int>(ThreadPool::DefaultJobs()) + 8;
  const auto outcomes = RunSweep(std::move(points), options);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].label, "only");
  EXPECT_FALSE(outcomes[0].result.chain_head_hex.empty());
}

TEST(RunnerSweep, RepetitionsAreDeterministicAndWarmupDiscarded) {
  std::vector<SweepPoint> points;
  points.push_back({ShortConfig(fabric::OrderingType::kSolo, 100), "reps"});
  SweepOptions options;
  options.jobs = 2;
  options.reps = 3;
  const auto outcomes = RunSweep(std::move(points), options);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_TRUE(outcomes[0].deterministic) << outcomes[0].mismatch;
  // reps kept repetitions, the extra warm-up rep discarded.
  EXPECT_EQ(outcomes[0].wall_s.size(), 3u);
}

}  // namespace
}  // namespace fabricsim::runner
