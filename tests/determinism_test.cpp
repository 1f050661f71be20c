// The determinism contract behind the bench regression gate: the same
// configuration (which fixes the RNG seed) must produce bit-identical
// simulated results — the same chain tip hash, counts, and latencies — on
// every run, for every consenter type, and regardless of host-side
// accelerations (the signature-verification cache memoizes *host* work
// only; simulated CPU costs are charged at every verification site).
//
// bench_diff compares the "simulated" subtree of the bench JSON exactly, so
// any failure here would surface as a phantom regression in CI.
#include <string>

#include <gtest/gtest.h>

#include "crypto/verify_cache.h"
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

class DeterminismTest : public ::testing::TestWithParam<OrderingType> {
 protected:
  void TearDown() override {
    crypto::VerifyCache::Instance().SetEnabled(true);
  }
};

TEST_P(DeterminismTest, RepeatRunsAreBitIdentical) {
  const ExperimentConfig config = ShortConfig(GetParam());
  const Fingerprint first = RunOnce(config);
  const Fingerprint second = RunOnce(config);
  EXPECT_EQ(first, second);
}

TEST_P(DeterminismTest, VerifyCacheDoesNotChangeSimulatedResults) {
  const ExperimentConfig config = ShortConfig(GetParam());

  auto& cache = crypto::VerifyCache::Instance();
  cache.SetEnabled(true);
  cache.Clear();
  cache.ResetStats();
  const Fingerprint cached = RunOnce(config);
  // The run must actually have exercised the cache, or this test proves
  // nothing about it.
  EXPECT_GT(cache.Hits(), 0u);

  cache.SetEnabled(false);
  cache.ResetStats();
  const Fingerprint uncached = RunOnce(config);
  EXPECT_EQ(cache.Hits() + cache.Misses(), 0u);  // fully bypassed

  EXPECT_EQ(cached, uncached);
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
  // --no-crypto-cache disables the MSP identity cache too, which CHANGES
  // the simulated costs (every lookup pays the uncached price) — that is
  // the knob contract, not a bug. What must still hold: the escape-hatch
  // runs are bit-identical to each other.
  const ExperimentConfig config = AllKnobsConfig(GetParam());
  auto& cache = crypto::VerifyCache::Instance();
  cache.SetEnabled(false);
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
