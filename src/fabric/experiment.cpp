#include "fabric/experiment.h"

#include <string_view>
#include <utility>

#include "crypto/sha256.h"
#include "metrics/registry.h"
#include "obs/trace.h"

namespace fabricsim::fabric {

namespace {

/// Maps a machine to the Fabric phase its saturation would explain, by the
/// builder's naming convention.
const char* PhaseOfMachine(std::string_view name) {
  if (name.starts_with("peer-machine") || name.starts_with("client-machine")) {
    return "execute";
  }
  if (name.starts_with("validator-machine")) return "validate";
  return "order";  // orderer-, broker-, zk- machines
}

/// The stations attribution reports on: every machine's CPU, then the
/// validator's ledger disk.
struct Station {
  std::string name;
  const char* phase;
  const sim::Cpu* cpu;
};

std::vector<Station> Stations(FabricNetwork& net) {
  std::vector<Station> out;
  sim::Environment& env = net.Env();
  for (std::size_t i = 0; i < env.MachineCount(); ++i) {
    const sim::Machine& m = env.MachineAt(i);
    out.push_back({m.Name(), PhaseOfMachine(m.Name()), &m.GetCpu()});
  }
  out.push_back({"validator disk", "validate", &net.ValidatorPeer().Disk()});
  return out;
}

/// Each station's utilization over [t0, t1], from its busy time read at
/// both edges (`busy0`, `busy1`, in Stations() order).
std::vector<obs::ResourceUsage> CollectUsage(
    FabricNetwork& net, sim::SimTime t0, sim::SimTime t1,
    const std::vector<sim::SimDuration>& busy0,
    const std::vector<sim::SimDuration>& busy1) {
  std::vector<obs::ResourceUsage> usage;
  const std::vector<Station> stations = Stations(net);
  for (std::size_t i = 0; i < stations.size(); ++i) {
    double u = 0.0;
    if (t1 > t0) {
      const double capacity =
          static_cast<double>(t1 - t0) * stations[i].cpu->Cores();
      const double used = static_cast<double>(busy1[i] - busy0[i]);
      u = used > capacity ? 1.0 : used / capacity;
    }
    usage.push_back({stations[i].name, stations[i].phase, u});
  }
  return usage;
}

/// Sampling cadence of the `ExperimentConfig::telemetry` attach point.
constexpr sim::SimDuration kTelemetryPeriod = sim::FromMillis(100);

/// Wires the standard instrument set into `reg`: scheduler backlog, queue
/// depths and high-watermarks, cumulative sheds, defense counters, tracker
/// occupancy, per-station busy cores and queue length,
/// and network bytes in flight. All closures point into `net`, so the
/// caller must DropInstruments() before the network dies.
void WireInstruments(metrics::Registry& reg, FabricNetwork& net) {
  const auto gauge = [&reg](const std::string& name, auto read) {
    reg.AddGauge(name, [read] { return static_cast<double>(read()); });
  };
  sim::Scheduler* sched = &net.Env().Sched();
  gauge("scheduler.pending_events", [sched] { return sched->PendingEvents(); });
  gauge("scheduler.executed_events",
        [sched] { return sched->ExecutedEvents(); });
  for (int c = 0; c < net.ChannelCount(); ++c) {
    const auto osns = net.Osns(c);
    for (std::size_t i = 0; i < osns.size(); ++i) {
      const std::string prefix =
          "osn" + std::to_string(i) + "." + net.ChannelId(c) + ".";
      ordering::OsnBase* osn = osns[i];
      gauge(prefix + "ingress_depth", [osn] { return osn->IngressDepth(); });
      // High watermark alongside the instantaneous depth: a coarse sampling
      // cadence misses bursts; the watermark never does.
      gauge(prefix + "ingress_depth_hwm",
            [osn] { return osn->IngressDepthHighWatermark(); });
      gauge(prefix + "ingress_shed", [osn] { return osn->IngressShed(); });
    }
  }
  for (std::size_t i = 0; i < net.PeerCount(); ++i) {
    peer::PeerNode* p = &net.Peer(i);
    if (!p->IsEndorsing()) continue;
    const std::string prefix = "peer" + std::to_string(i) + ".";
    gauge(prefix + "endorse_depth", [p] { return p->EndorseDepth(); });
    gauge(prefix + "endorse_depth_hwm",
          [p] { return p->EndorseDepthHighWatermark(); });
    gauge(prefix + "endorse_shed", [p] { return p->EndorseShed(); });
  }
  peer::PeerNode* validator = &net.ValidatorPeer();
  gauge("validator.deferred_blocks",
        [validator] { return validator->GetCommitter().DeferredBlocks(); });
  // Byzantine-defense counters (flat zero on honest runs).
  gauge("validator.rejected_blocks",
        [validator] { return validator->GetCommitter().RejectedBlocks(); });
  gauge("validator.duplicate_tx_rejects", [validator] {
    return validator->GetCommitter().DuplicateTxRejects();
  });
  gauge("validator.byz_quarantines",
        [validator] { return validator->ByzantineQuarantines(); });
  metrics::TxTracker* tracker = &net.Tracker();
  gauge("tracker.inflight_records", [tracker] { return tracker->TxCount(); });
  gauge("tracker.retired_records",
        [tracker] { return tracker->RetiredCount(); });
  // Resource use per CPU station, as `dstat` would show it per machine.
  const auto station = [&gauge](const std::string& name, const sim::Cpu* cpu) {
    gauge(name + ".busy_cores", [cpu] { return cpu->BusyCores(); });
    gauge(name + ".queue_len", [cpu] { return cpu->QueueLength(); });
  };
  sim::Environment& env = net.Env();
  for (std::size_t i = 0; i < env.MachineCount(); ++i) {
    sim::Machine& m = env.MachineAt(i);
    station(m.Name(), &m.GetCpu());
  }
  station("validator disk", &validator->Disk());
  const sim::Network* network = &env.Net();
  gauge("network.bytes_in_flight",
        [network] { return network->BytesInFlight(); });
}

}  // namespace

ExperimentResult RunExperiment(const ExperimentConfig& config) {
  // Faults imply recovery: the chaos runs measure the failover machinery,
  // and the invariant checker needs the clients' outcome logs.
  NetworkOptions net_options = config.network;
  const faults::FaultSchedule schedule =
      faults::FaultSchedule::Parse(config.faults);
  if (!schedule.Empty()) net_options.recovery.enabled = true;
  // A Byzantine schedule arms the cross-OSN attestation defense; honest
  // schedules leave it off so their event streams stay byte-identical.
  if (schedule.HasByzantine()) net_options.byzantine_defense = true;
  if (config.check_invariants) net_options.track_outcomes = true;

  // The measurement window is fully determined by the config, which is what
  // lets the tracker stream: fold-and-retire needs the window up front.
  const sim::SimTime window_start = config.warmup;
  const sim::SimTime window_end = config.warmup + config.workload.duration;
  const sim::SimTime measure_start = window_start + sim::FromSeconds(5);

  FabricNetwork net(net_options);

  // Streaming accounting only when nothing needs post-hoc Records():
  // attribution walks them, the invariant checker cross-references them, and
  // recovery's commit-timeout can reject a transaction after its commit
  // already retired the record (the one reject-after-commit race).
  const bool streaming = config.streaming_stats &&
                         net_options.tracer == nullptr && schedule.Empty() &&
                         !config.check_invariants &&
                         !net_options.recovery.enabled;
  if (streaming) net.Tracker().EnableStreaming(measure_start, window_end);

  // Attribution's windowed utilization: every station's busy time, read at
  // both window edges by observer events (which change no simulated
  // result).
  std::vector<sim::SimDuration> busy_at_start;
  std::vector<sim::SimDuration> busy_at_end;
  if (net_options.tracer != nullptr) {
    const auto read_busy_at = [&net](sim::SimTime t,
                                     std::vector<sim::SimDuration>& out) {
      net.Env().Sched().ScheduleObserverAt(
          t,
          [&net, &out] {
            for (const Station& st : Stations(net)) {
              out.push_back(st.cpu->BusyTime());
            }
          },
          "obs/busy_time");
    };
    read_busy_at(measure_start, busy_at_start);
    read_busy_at(window_end, busy_at_end);
  }

  // Host profiler: external one wins (the CLI exports its Chrome trace);
  // otherwise a run-local instance feeds ExperimentResult::profile.
  sim::DesProfiler local_profiler;
  sim::DesProfiler* profiler = config.profiler;
  if (profiler == nullptr && config.profile) profiler = &local_profiler;
  if (profiler != nullptr) {
    profiler->Reset();
    net.Env().Sched().SetProfiler(profiler);
  }

  faults::FaultInjector injector(net, schedule);
  injector.Arm();
  net.Start();

  // Both attach points share one lifecycle: Reset → wire → sample → final
  // sample → DropInstruments (below, before `net` dies).
  const std::pair<metrics::Registry*, sim::SimDuration> samplers[] = {
      {config.registry, config.metrics_period},
      {config.telemetry, kTelemetryPeriod}};
  for (const auto& [reg, period] : samplers) {
    if (reg == nullptr) continue;
    reg->Reset();
    WireInstruments(*reg, net);
    reg->StartSampling(net.Env().Sched(), period);
  }

  // The workload opens after the warm-up and runs through the window.
  client::WorkloadConfig wl = config.workload;
  wl.start = config.warmup;
  client::WorkloadController controller(net.Env(), net.Clients(), wl);
  controller.Start();

  net.Env().Sched().RunUntil(window_end + config.drain);
  const sim::SimTime end = net.Env().Sched().Now();
  for (const auto& [reg, period] : samplers) {
    if (reg == nullptr) continue;
    reg->StopSampling();
    // The tail after the last tick, unless a tick landed on the end itself.
    if (reg->Snapshots().empty() || reg->Snapshots().back().t != end) {
      reg->SampleNow(end);
    }
  }

  ExperimentResult out;
  // The measurement window skips a 5 s lead-in (computed up top) so queues
  // are in steady state when it opens.
  out.report = net.Tracker().BuildReport(measure_start, window_end);
  out.generated = controller.Generated();
  out.generated_rate_tps =
      controller.GeneratedLog().MeanRate(measure_start, window_end);
  out.generated_rate_check = controller.GeneratedLog().FractionWithin(
      wl.rate_tps, 0.25, measure_start, window_end);
  for (client::Client* c : net.Clients()) {
    out.client_committed_valid += c->CommittedValid();
    out.client_committed_invalid += c->CommittedInvalid();
    out.client_rejected += c->Rejected();
    out.endorse_failures += c->EndorseFailures();
    out.bad_endorsements += c->Failures(client::FailureReason::kBadEndorsement);
  }
  for (int c = 0; c < net.ChannelCount(); ++c) {
    for (ordering::OsnBase* osn : net.Osns(c)) {
      out.osn_shed += osn->IngressShed();
    }
  }
  for (std::size_t i = 0; i < net.PeerCount(); ++i) {
    peer::PeerNode& p = net.Peer(i);
    if (p.IsEndorsing()) out.endorser_shed += p.EndorseShed();
    out.byz_quarantines += p.ByzantineQuarantines();
    for (int c = 0; c < net.ChannelCount(); ++c) {
      const std::string channel = net.ChannelId(c);
      if (!p.HasChannel(channel)) continue;
      const peer::Committer& committer = p.GetCommitter(channel);
      out.rejected_blocks += committer.RejectedBlocks();
      out.duplicate_tx_rejects += committer.DuplicateTxRejects();
    }
  }
  out.committer_deferred = net.ValidatorPeer().GetCommitter().DeferredTotal();
  const auto& chain = net.ValidatorPeer().GetCommitter().Chain();
  out.chain_height = chain.Height();
  out.chain_head_hex = crypto::DigestHex(chain.TipHash());
  out.sched_events = net.Env().Sched().ExecutedEvents();
  out.chain_audit_ok = chain.Audit().ok;
  out.messages_sent = net.Env().Net().MessagesSent();
  out.messages_dropped = net.Env().Net().MessagesDropped();
  out.bytes_sent = net.Env().Net().BytesSent();
  if (config.network.tracer != nullptr) {
    out.attribution = obs::BuildAttribution(
        *config.network.tracer, net.Tracker(), measure_start, window_end,
        CollectUsage(net, measure_start, window_end, busy_at_start,
                     busy_at_end));
  }
  if (!schedule.Empty()) {
    out.fault_log = injector.Log();
    out.recovery = faults::AnalyzeRecovery(
        net.ValidatorPeer().GetCommitter().CommitLog(),
        schedule.FirstFaultAt(), window_end);
    // A permanently stalled channel turns "still pending in the client"
    // into "waiting for a commit that can never arrive" — count those
    // acked transactions as lost (unless the caller opted out because a
    // stall is an expected outcome for this schedule).
    out.invariants = faults::CheckInvariants(
        net, out.recovery->stalled && config.stall_pending_is_lost,
        schedule.HasByzantine());
  } else if (config.check_invariants) {
    out.invariants = faults::CheckInvariants(net);
  }
  out.tracker.streaming = net.Tracker().Streaming();
  out.tracker.records_hwm = net.Tracker().RecordsHighWatermark();
  out.tracker.retired = net.Tracker().RetiredCount();
  out.tracker.late_marks = net.Tracker().LateMarks();
  if (profiler != nullptr) {
    net.Env().Sched().SetProfiler(nullptr);
    out.profile = profiler->Report();
  }
  // The registries keep their names + timelines; the closures point into
  // `net`, which dies when this frame returns.
  for (const auto& [reg, period] : samplers) {
    if (reg != nullptr) reg->DropInstruments();
  }
  return out;
}

ExperimentConfig StandardConfig(OrderingType ordering, int and_x,
                                double rate_tps) {
  ExperimentConfig config;
  config.network.topology.ordering = ordering;
  config.network.topology.endorsing_peers = 10;
  config.network.topology.committing_peers = 1;
  config.network.topology.osns = 3;
  config.network.topology.kafka_brokers = 3;
  config.network.topology.zookeepers = 3;

  if (and_x > 0) {
    config.network.channel.policy_expr = MakeAndPolicy(and_x).ToString();
  }  // else: OR over all endorsing peers (ResolvePolicy default)

  config.workload.kind = client::WorkloadKind::kKvWrite;
  config.workload.rate_tps = rate_tps;
  config.workload.duration = sim::FromSeconds(45);
  config.workload.value_size = 1;  // the paper's 1-byte transactions
  return config;
}

}  // namespace fabricsim::fabric
