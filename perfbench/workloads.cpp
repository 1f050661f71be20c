#include "workloads.h"

#include "fabric/channel.h"

namespace perfbench {

namespace fabric = fabricsim::fabric;
namespace client = fabricsim::client;
namespace sim = fabricsim::sim;

namespace {

// Simulated measurement window of every workload. The runner adds its own
// 10 s warm-up and 15 s drain around it.
constexpr double kWindowSeconds = 60.0;

// The paper's testbed (StandardConfig): 10 endorsing peers, one dedicated
// validator, 10 client machines driving open-loop Poisson arrivals, 3 OSNs,
// 3 Kafka brokers and 3 ZooKeeper nodes, kvwrite with 1-byte values.
fabric::ExperimentConfig Base(fabric::OrderingType ordering, double rate_tps,
                              std::uint64_t seed) {
  fabric::ExperimentConfig config =
      fabric::StandardConfig(ordering, /*and_x=*/0, rate_tps);
  config.workload.duration = sim::FromSeconds(kWindowSeconds);
  config.workload.arrivals = client::ArrivalProcess::kPoisson;
  config.network.seed = seed;
  return config;
}

}  // namespace

std::vector<std::string> WorkloadNames() {
  return {"raft-or-knee", "solo-and5-opt", "kafka-smallbank-hot",
          "raft-leader-crash"};
}

std::optional<Workload> FindWorkload(const std::string& name,
                                     std::uint64_t seed) {
  Workload w;
  w.name = name;
  if (name == "raft-or-knee" || name == "raft-leader-crash") {
    // The paper's headline configuration just under its ~300 tps OR knee.
    w.config = Base(fabric::OrderingType::kRaft, 250.0, seed);
    if (name == "raft-leader-crash") {
      // The windowed form revives the OSN that crashed. The two-event form
      // (crash:leader@20s,revive:leader@30s) resolves `leader` again at
      // 30 s, revives the new, already-up leader and leaves the crashed
      // OSN down for the rest of the run.
      w.config.faults = "crash:leader@20s-30s";
      w.crash_at_s = 20.0;
    }
    return w;
  }
  if (name == "solo-and5-opt") {
    // Five endorsements per tx with every validate-phase knob on; Solo
    // keeps ordering nearly free so the endorse/validate paths dominate.
    w.config = Base(fabric::OrderingType::kSolo, 250.0, seed);
    w.config.network.channel.policy_expr =
        fabric::MakeAndPolicy(5).ToString();
    fabric::OptimizationOptions& opt = w.config.network.optimizations;
    opt.msp_cache = true;
    opt.vscc_workers = 4;
    opt.bulk_commit = true;
    opt.policy_shortcircuit = true;
    return w;
  }
  if (name == "kafka-smallbank-hot") {
    // Smallbank over 100 accounts: reads beside writes on a hot key set
    // make a large share of txs MVCC-invalid, and the broker/ZooKeeper
    // model sends many small messages.
    w.config = Base(fabric::OrderingType::kKafka, 200.0, seed);
    w.config.workload.kind = client::WorkloadKind::kSmallBank;
    w.config.workload.key_space = 100;
    w.config.check_invariants = true;
    return w;
  }
  return std::nullopt;
}

}  // namespace perfbench
