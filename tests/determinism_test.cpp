// The determinism contract behind the bench regression gate: the same
// configuration (which fixes the RNG seed) must produce bit-identical
// simulated results — the same chain tip hash, counts, and latencies — on
// every run, for every consenter type, and regardless of host-side
// accelerations (signature verdicts memoized on shared envelopes and
// blocks save *host* work only; simulated CPU costs are charged at every
// verification site).
//
// bench_diff compares the "simulated" subtree of the bench JSON exactly, so
// any failure here would surface as a phantom regression in CI.
#include <string>

#include <gtest/gtest.h>

#include "fabric/experiment.h"

namespace fabricsim::fabric {
namespace {

ExperimentConfig ShortConfig(OrderingType ordering) {
  // Short but non-trivial: a few hundred transactions, several blocks.
  ExperimentConfig config = StandardConfig(ordering, 0, 120);
  config.warmup = sim::FromSeconds(3);
  config.workload.duration = sim::FromSeconds(6);
  config.drain = sim::FromSeconds(6);
  return config;
}

// The fields the gate treats as the run's fingerprint.
struct Fingerprint {
  std::string chain_head_hex;
  std::uint64_t chain_height;
  std::uint64_t sched_events;
  std::uint64_t completed;
  double goodput_tps;
  double p99_s;

  bool operator==(const Fingerprint&) const = default;
};

Fingerprint RunOnce(const ExperimentConfig& config) {
  const ExperimentResult r = RunExperiment(config);
  EXPECT_FALSE(r.chain_head_hex.empty());
  EXPECT_GT(r.chain_height, 1u);
  return Fingerprint{r.chain_head_hex,
                     r.chain_height,
                     r.sched_events,
                     r.report.end_to_end.completed,
                     r.report.end_to_end.throughput_tps,
                     r.report.end_to_end.p99_latency_s};
}

class DeterminismTest : public ::testing::TestWithParam<OrderingType> {};

TEST_P(DeterminismTest, RepeatRunsAreBitIdentical) {
  const ExperimentConfig config = ShortConfig(GetParam());
  const Fingerprint first = RunOnce(config);
  const Fingerprint second = RunOnce(config);
  EXPECT_EQ(first, second);
}

ExperimentConfig AllKnobsConfig(OrderingType ordering) {
  ExperimentConfig config = ShortConfig(ordering);
  config.network.optimizations.msp_cache = true;
  config.network.optimizations.vscc_workers = 4;
  config.network.optimizations.bulk_commit = true;
  config.network.optimizations.policy_shortcircuit = true;
  return config;
}

TEST_P(DeterminismTest, AllOptimizationKnobsRepeatRunsAreBitIdentical) {
  // The --opt-* knobs deliberately change simulated service times, so they
  // are held to the same contract as the base simulation: repeat runs are
  // bit-identical (the MSP cache's hit/miss sequence is deterministic
  // because lookups happen only on the DES thread in block/tx order).
  const ExperimentConfig config = AllKnobsConfig(GetParam());
  const Fingerprint first = RunOnce(config);
  const Fingerprint second = RunOnce(config);
  EXPECT_EQ(first, second);
}

TEST_P(DeterminismTest, StreamingTrackerMatchesFullWithAllKnobs) {
  // Streaming (bounded-memory) vs full-record TxTracker accounting is a
  // host-side choice: with every optimization knob armed, the simulated
  // results must still be bit-equal between the two modes.
  ExperimentConfig config = AllKnobsConfig(GetParam());
  config.streaming_stats = false;
  const Fingerprint full = RunOnce(config);
  config.streaming_stats = true;
  const Fingerprint streaming = RunOnce(config);
  EXPECT_EQ(full, streaming);
}

TEST_P(DeterminismTest, EscapeHatchRunsAreDeterministicWithAllKnobs) {
  // The timeline the removed crypto-cache escape hatch produced: every
  // other knob armed, every identity lookup at the uncached simulated cost
  // (the MSP cache off). Repeat runs must be bit-identical.
  ExperimentConfig config = AllKnobsConfig(GetParam());
  config.network.optimizations.msp_cache = false;
  const Fingerprint first = RunOnce(config);
  const Fingerprint second = RunOnce(config);
  EXPECT_EQ(first, second);
}

INSTANTIATE_TEST_SUITE_P(AllOrderings, DeterminismTest,
                         ::testing::Values(OrderingType::kSolo,
                                           OrderingType::kKafka,
                                           OrderingType::kRaft),
                         [](const auto& info) {
                           switch (info.param) {
                             case OrderingType::kSolo:
                               return "Solo";
                             case OrderingType::kKafka:
                               return "Kafka";
                             case OrderingType::kRaft:
                               return "Raft";
                           }
                           return "Unknown";
                         });

TEST(DeterminismTest, DifferentSeedsDiverge) {
  // Sanity check that the fingerprint is sensitive at all: a different
  // workload seed must move the chain tip hash.
  ExperimentConfig config = ShortConfig(OrderingType::kSolo);
  const Fingerprint base = RunOnce(config);
  config.network.seed += 1;
  const Fingerprint other = RunOnce(config);
  EXPECT_NE(base.chain_head_hex, other.chain_head_hex);
}

}  // namespace
}  // namespace fabricsim::fabric
