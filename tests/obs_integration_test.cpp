// Integration tests for the observability subsystem on a full experiment:
// spans appear in all three phases, the attribution components cover the
// measured phase latency, and attaching the tracer + telemetry sampler does
// not perturb the simulation.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <tuple>

#include "fabric/experiment.h"
#include "obs/telemetry.h"
#include "obs/trace.h"

namespace fabricsim {
namespace {

fabric::ExperimentConfig SmallExperiment() {
  fabric::ExperimentConfig config;
  config.network.topology.ordering = fabric::OrderingType::kSolo;
  config.network.topology.endorsing_peers = 4;
  config.network.topology.committing_peers = 1;
  config.network.topology.osns = 1;
  config.network.seed = 7;
  config.workload.kind = client::WorkloadKind::kKvWrite;
  config.workload.rate_tps = 50;
  config.workload.duration = sim::FromSeconds(15);
  config.warmup = sim::FromSeconds(5);
  config.drain = sim::FromSeconds(10);
  return config;
}

bool AnySpanNamed(const obs::Tracer& tracer, const std::string& name) {
  for (const obs::Span& s : tracer.Spans()) {
    if (s.name == name) return true;
  }
  return false;
}

TEST(ObsIntegration, TraceCoversAllThreePhases) {
  obs::Tracer tracer;
  fabric::ExperimentConfig config = SmallExperiment();
  config.network.tracer = &tracer;

  const auto result = fabric::RunExperiment(config);
  ASSERT_GT(result.report.end_to_end.completed, 0u);
  ASSERT_GT(tracer.EventCount(), 0u);

  // Execute-phase spans (client + endorser), order-phase spans (orderer),
  // validate-phase spans (committing peer) all present.
  EXPECT_TRUE(AnySpanNamed(tracer, "client.proposal"));
  EXPECT_TRUE(AnySpanNamed(tracer, "rpc.endorse"));
  EXPECT_TRUE(AnySpanNamed(tracer, "endorse.execute"));
  EXPECT_TRUE(AnySpanNamed(tracer, "rpc.broadcast"));
  EXPECT_TRUE(AnySpanNamed(tracer, "order.consensus"));
  EXPECT_TRUE(AnySpanNamed(tracer, "block.assemble"));
  EXPECT_TRUE(AnySpanNamed(tracer, "deliver.wire"));
  EXPECT_TRUE(AnySpanNamed(tracer, "vscc"));
  EXPECT_TRUE(AnySpanNamed(tracer, "commit"));

  // Spans never run backwards.
  for (const obs::Span& s : tracer.Spans()) {
    EXPECT_LE(s.begin, s.end) << s.name;
  }
}

TEST(ObsIntegration, AttributionComponentsCoverPhaseLatency) {
  obs::Tracer tracer;
  fabric::ExperimentConfig config = SmallExperiment();
  config.network.tracer = &tracer;

  const auto result = fabric::RunExperiment(config);
  ASSERT_TRUE(result.attribution.has_value());
  const obs::AttributionReport& a = *result.attribution;

  const obs::PhaseBreakdown* phases[3] = {&a.execute, &a.order, &a.validate};
  const double report_means_ms[3] = {
      result.report.execute.mean_latency_s * 1000.0,
      result.report.order.mean_latency_s * 1000.0,
      result.report.validate.mean_latency_s * 1000.0,
  };
  for (int p = 0; p < 3; ++p) {
    const obs::PhaseBreakdown& b = *phases[p];
    ASSERT_GT(b.tx_count, 0u) << "phase " << p;
    // The sweep charges every nanosecond of the phase exactly once, so the
    // four components reconstruct the mean total.
    EXPECT_NEAR(b.service_ms + b.queue_ms + b.wire_ms + b.other_ms,
                b.mean_total_ms, 1e-6)
        << "phase " << p;
    // The attribution's phase total agrees with the tracker-derived report.
    EXPECT_NEAR(b.mean_total_ms, report_means_ms[p],
                0.05 * report_means_ms[p] + 1e-3)
        << "phase " << p;
    // Instrumentation coverage: the identified service/queue/wire time sums
    // to within 5% of the phase latency (i.e. "other" is small).
    EXPECT_NEAR(b.service_ms + b.queue_ms + b.wire_ms, b.mean_total_ms,
                0.05 * b.mean_total_ms)
        << "phase " << p << ": uninstrumented remainder " << b.other_ms
        << " ms of " << b.mean_total_ms << " ms";
    EXPECT_FALSE(b.verdict.empty());
  }
}

TEST(ObsIntegration, TracingAndTelemetryDoNotPerturbResults) {
  // Baseline: observability disabled — and a never-attached tracer records
  // nothing at all.
  obs::Tracer idle_tracer;
  const auto plain = fabric::RunExperiment(SmallExperiment());
  EXPECT_EQ(idle_tracer.EventCount(), 0u);
  EXPECT_FALSE(plain.attribution.has_value());

  // Same seed with tracer + telemetry attached.
  obs::Tracer tracer;
  obs::TelemetrySampler sampler;
  fabric::ExperimentConfig config = SmallExperiment();
  config.network.tracer = &tracer;
  config.telemetry = &sampler;
  const auto traced = fabric::RunExperiment(config);

  EXPECT_GT(tracer.EventCount(), 0u);
  EXPECT_GT(sampler.Samples().size(), 0u);

  // The simulation is deterministic and the observers are passive: every
  // reported number must be identical.
  EXPECT_EQ(plain.generated, traced.generated);
  EXPECT_EQ(plain.chain_height, traced.chain_height);
  EXPECT_EQ(plain.messages_sent, traced.messages_sent);
  EXPECT_EQ(plain.bytes_sent, traced.bytes_sent);
  EXPECT_EQ(plain.client_committed_valid, traced.client_committed_valid);
  EXPECT_EQ(plain.report.end_to_end.completed,
            traced.report.end_to_end.completed);
  EXPECT_DOUBLE_EQ(plain.report.end_to_end.mean_latency_s,
                   traced.report.end_to_end.mean_latency_s);
  EXPECT_DOUBLE_EQ(plain.report.execute.mean_latency_s,
                   traced.report.execute.mean_latency_s);
  EXPECT_DOUBLE_EQ(plain.report.order.mean_latency_s,
                   traced.report.order.mean_latency_s);
  EXPECT_DOUBLE_EQ(plain.report.validate.mean_latency_s,
                   traced.report.validate.mean_latency_s);
}

TEST(ObsIntegration, TelemetrySeesLoadOnPeerMachines) {
  obs::TelemetrySampler sampler;
  fabric::ExperimentConfig config = SmallExperiment();
  config.telemetry = &sampler;
  fabric::RunExperiment(config);

  bool peer_busy_seen = false;
  bool network_seen = false;
  bool disk_seen = false;
  for (const obs::TelemetrySample& s : sampler.Samples()) {
    if (s.metric == "busy_cores" && s.value > 0 &&
        s.resource.rfind("peer-machine", 0) == 0) {
      peer_busy_seen = true;
    }
    if (s.resource == "network" && s.metric == "bytes_in_flight") {
      network_seen = true;
    }
    if (s.resource == "validator disk") disk_seen = true;
  }
  EXPECT_TRUE(peer_busy_seen);
  EXPECT_TRUE(network_seen);
  EXPECT_TRUE(disk_seen);
}

TEST(ObsIntegration, ReusedTelemetrySamplerKeepsOneRowPerSample) {
  // One sampler across two runs: the second run must sample only its own
  // network (the first one's stations are freed by then), once per tick.
  obs::TelemetrySampler sampler;
  fabric::ExperimentConfig config = SmallExperiment();
  config.telemetry = &sampler;
  fabric::RunExperiment(config);
  fabric::RunExperiment(config);

  std::set<std::tuple<sim::SimTime, std::string, std::string>> seen;
  sim::SimTime last = 0;
  for (const obs::TelemetrySample& s : sampler.Samples()) {
    EXPECT_TRUE(seen.emplace(s.t, s.resource, s.metric).second)
        << s.t << ' ' << s.resource << ' ' << s.metric;
    last = std::max(last, s.t);
  }
  std::size_t disk_rows_at_last_tick = 0;
  for (const obs::TelemetrySample& s : sampler.Samples()) {
    if (s.t == last && s.resource == "validator disk" &&
        s.metric == "busy_cores") {
      ++disk_rows_at_last_tick;
    }
  }
  EXPECT_EQ(disk_rows_at_last_tick, 1u);

  // The instruments died with the run's network: a later sample is safe.
  const std::size_t rows = sampler.Samples().size();
  sampler.SampleNow(last + 1);
  EXPECT_GT(sampler.Samples().size(), rows);
}

}  // namespace
}  // namespace fabricsim
