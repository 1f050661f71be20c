// End-to-end integration tests: full FabricNetwork deployments driving the
// execute -> order -> validate pipeline, for every ordering service, with
// conflict workloads, invariants, and fault injection.
#include <gtest/gtest.h>

#include "client/workload.h"
#include "fabric/experiment.h"
#include "fabric/network_builder.h"

namespace fabricsim {
namespace {

using fabric::FabricNetwork;
using fabric::NetworkOptions;
using fabric::OrderingType;

NetworkOptions SmallNetwork(OrderingType ordering) {
  NetworkOptions opts;
  opts.topology.ordering = ordering;
  opts.topology.endorsing_peers = 4;
  opts.topology.committing_peers = 1;
  opts.topology.osns = 3;
  opts.topology.kafka_brokers = 3;
  opts.topology.zookeepers = 3;
  opts.seeded_accounts = 50;
  opts.seed = 99;
  return opts;
}

void SubmitKv(client::Client* c, const std::string& key,
              const std::string& value) {
  proto::ChaincodeInvocation inv;
  inv.chaincode_id = "kvwrite";
  inv.function = "write";
  inv.args = {proto::ToBytes(key), proto::ToBytes(value)};
  c->Submit(std::move(inv));
}

class EndToEnd : public ::testing::TestWithParam<OrderingType> {};

TEST_P(EndToEnd, TransactionsCommitOnAllOrderingServices) {
  FabricNetwork net(SmallNetwork(GetParam()));
  net.Start();
  net.Env().Sched().RunUntil(sim::FromSeconds(3));  // consensus warm-up

  auto clients = net.Clients();
  for (int i = 0; i < 20; ++i) {
    SubmitKv(clients[static_cast<std::size_t>(i) % clients.size()],
             "key" + std::to_string(i), "value");
  }
  net.Env().Sched().RunUntil(sim::FromSeconds(15));

  std::uint64_t committed = 0;
  for (auto* c : clients) committed += c->CommittedValid();
  EXPECT_EQ(committed, 20u);

  auto& validator = net.ValidatorPeer().GetCommitter();
  EXPECT_EQ(validator.CommittedTx(), 20u);
  EXPECT_TRUE(validator.Chain().Audit().ok);
  EXPECT_TRUE(validator.State().Get("kvwrite", "key7").has_value());
}

TEST_P(EndToEnd, AllPeersConvergeToSameChain) {
  FabricNetwork net(SmallNetwork(GetParam()));
  net.Start();
  net.Env().Sched().RunUntil(sim::FromSeconds(3));
  auto clients = net.Clients();
  for (int i = 0; i < 30; ++i) {
    SubmitKv(clients[static_cast<std::size_t>(i) % clients.size()],
             "k" + std::to_string(i), "v");
  }
  net.Env().Sched().RunUntil(sim::FromSeconds(20));

  const auto& reference = net.ValidatorPeer().GetCommitter().Chain();
  ASSERT_GT(reference.Height(), 0u);
  for (std::size_t p = 0; p < net.PeerCount(); ++p) {
    const auto& chain = net.Peer(p).GetCommitter().Chain();
    ASSERT_EQ(chain.Height(), reference.Height()) << "peer " << p;
    EXPECT_EQ(chain.TipHash(), reference.TipHash()) << "peer " << p;
    EXPECT_TRUE(chain.Audit().ok) << "peer " << p;
  }
}

INSTANTIATE_TEST_SUITE_P(Orderings, EndToEnd,
                         ::testing::Values(OrderingType::kSolo,
                                           OrderingType::kKafka,
                                           OrderingType::kRaft),
                         [](const auto& info) {
                           return fabric::OrderingTypeName(info.param);
                         });

TEST(Integration, ContendedReadWriteProducesMvccConflicts) {
  NetworkOptions opts = SmallNetwork(OrderingType::kSolo);
  FabricNetwork net(opts);
  net.Start();
  net.Env().Sched().RunUntil(sim::FromSeconds(1));

  // Everyone read-modify-writes the same key in the same block window.
  auto clients = net.Clients();
  for (int i = 0; i < 10; ++i) {
    proto::ChaincodeInvocation inv;
    inv.chaincode_id = "kvwrite";
    inv.function = "readwrite";
    inv.args = {proto::ToBytes("hot"), proto::ToBytes("v")};
    clients[static_cast<std::size_t>(i) % clients.size()]->Submit(
        std::move(inv));
  }
  net.Env().Sched().RunUntil(sim::FromSeconds(15));

  auto& committer = net.ValidatorPeer().GetCommitter();
  // Exactly one read-modify-write of the hot key can win per block; with
  // all 10 in flight at once, conflicts are guaranteed.
  EXPECT_GT(committer.InvalidTx(), 0u);
  EXPECT_GT(committer.CommittedTx(), 0u);
  EXPECT_EQ(committer.CommittedTx() + committer.InvalidTx(), 10u);
}

TEST(Integration, TokenConservationUnderContention) {
  NetworkOptions opts = SmallNetwork(OrderingType::kSolo);
  opts.seeded_accounts = 10;
  opts.seeded_balance = 1000;
  FabricNetwork net(opts);
  net.Start();
  net.Env().Sched().RunUntil(sim::FromSeconds(1));

  client::WorkloadConfig wl;
  wl.kind = client::WorkloadKind::kTokenTransfer;
  wl.rate_tps = 40;
  wl.duration = sim::FromSeconds(10);
  wl.key_space = 10;  // heavy contention over 10 accounts
  client::WorkloadController controller(net.Env(), net.Clients(), wl);
  controller.Start();
  net.Env().Sched().RunUntil(sim::FromSeconds(25));

  // Invariant: money is conserved regardless of conflicts/aborts.
  const auto& state = net.ValidatorPeer().GetCommitter().State();
  std::int64_t total = 0;
  for (const auto& acct : client::WorkloadAccounts(10)) {
    const auto v = state.Get("token", acct);
    ASSERT_TRUE(v.has_value()) << acct;
    total += std::stoll(proto::ToString(v->value));
  }
  EXPECT_EQ(total, 10 * 1000);

  // And every peer agrees on every balance (state machine replication).
  for (std::size_t p = 0; p < net.PeerCount(); ++p) {
    const auto& other = net.Peer(p).GetCommitter().State();
    for (const auto& acct : client::WorkloadAccounts(10)) {
      EXPECT_EQ(proto::ToString(other.Get("token", acct)->value),
                proto::ToString(state.Get("token", acct)->value))
          << "peer " << p << " " << acct;
    }
  }
}

TEST(Integration, SmallBankWorkloadRuns) {
  NetworkOptions opts = SmallNetwork(OrderingType::kRaft);
  opts.seeded_accounts = 20;
  FabricNetwork net(opts);
  net.Start();

  client::WorkloadConfig wl;
  wl.kind = client::WorkloadKind::kSmallBank;
  wl.rate_tps = 30;
  wl.duration = sim::FromSeconds(8);
  wl.key_space = 20;
  wl.start = sim::FromSeconds(3);
  client::WorkloadController controller(net.Env(), net.Clients(), wl);
  controller.Start();
  net.Env().Sched().RunUntil(sim::FromSeconds(25));

  auto& committer = net.ValidatorPeer().GetCommitter();
  EXPECT_GT(committer.CommittedTx(), 0u);
  EXPECT_TRUE(committer.Chain().Audit().ok);
}

TEST(Integration, RaftOrdererLeaderCrashRecovers) {
  NetworkOptions opts = SmallNetwork(OrderingType::kRaft);
  FabricNetwork net(opts);
  net.Start();
  net.Env().Sched().RunUntil(sim::FromSeconds(3));

  auto clients = net.Clients();
  for (int i = 0; i < 5; ++i) SubmitKv(clients[0], "a" + std::to_string(i), "v");
  net.Env().Sched().RunUntil(sim::FromSeconds(10));
  const std::uint64_t before =
      net.ValidatorPeer().GetCommitter().CommittedTx();
  EXPECT_EQ(before, 5u);

  // Crash the raft leader OSN.
  for (auto& osn : net.Rafts()) {
    if (osn->IsLeader()) {
      net.Env().Net().Crash(osn->NetId());
      break;
    }
  }
  net.Env().Sched().RunUntil(net.Env().Now() + sim::FromSeconds(5));

  // Clients whose orderer survived continue to commit. (A client attached
  // to the crashed OSN rejects after the 3 s broadcast timeout, like the
  // paper's clients.) Find a client attached to a live OSN: submit via all.
  for (std::size_t i = 0; i < clients.size(); ++i) {
    SubmitKv(clients[i], "after" + std::to_string(i), "v");
  }
  net.Env().Sched().RunUntil(net.Env().Now() + sim::FromSeconds(15));
  EXPECT_GT(net.ValidatorPeer().GetCommitter().CommittedTx(), before);

  std::uint64_t rejected = 0;
  for (auto* c : clients) rejected += c->Rejected();
  EXPECT_GT(rejected, 0u);  // the crashed OSN's clients gave up after 3 s
}

TEST(Integration, SoloOrdererCrashRejectsAllAfterTimeout) {
  FabricNetwork net(SmallNetwork(OrderingType::kSolo));
  net.Start();
  net.Env().Sched().RunUntil(sim::FromSeconds(1));
  net.Env().Net().Crash(net.Solo()->NetId());

  auto clients = net.Clients();
  for (int i = 0; i < 4; ++i) SubmitKv(clients[0], "k" + std::to_string(i), "v");
  net.Env().Sched().RunUntil(sim::FromSeconds(10));

  // The paper's single-point-of-failure observation for Solo: nothing
  // commits, and clients reject after the 3 s ordering timeout.
  EXPECT_EQ(net.ValidatorPeer().GetCommitter().CommittedTx(), 0u);
  EXPECT_EQ(clients[0]->Rejected(), 4u);
}

TEST(Integration, CrashedEndorserFailsEndorsementEventually) {
  NetworkOptions opts = SmallNetwork(OrderingType::kSolo);
  // AND over all 4 peers: losing one endorser blocks every transaction.
  opts.channel.policy_expr = fabric::MakeAndPolicy(4).ToString();
  FabricNetwork net(opts);
  net.Start();
  net.Env().Sched().RunUntil(sim::FromSeconds(1));
  net.Env().Net().Crash(net.Peer(0).NetId());

  auto clients = net.Clients();
  SubmitKv(clients[0], "k", "v");
  net.Env().Sched().RunUntil(sim::FromSeconds(20));
  EXPECT_EQ(clients[0]->CommittedValid(), 0u);
  EXPECT_EQ(clients[0]->Rejected(), 1u);  // endorse timeout fired
}

TEST(Integration, ExperimentRunnerProducesCoherentReport) {
  fabric::ExperimentConfig config =
      fabric::StandardConfig(OrderingType::kSolo, 0, 100);
  config.network.topology.endorsing_peers = 4;
  config.workload.duration = sim::FromSeconds(15);
  config.warmup = sim::FromSeconds(3);

  const auto result = fabric::RunExperiment(config);
  EXPECT_TRUE(result.chain_audit_ok);
  EXPECT_GT(result.chain_height, 0u);
  EXPECT_GT(result.generated, 0u);
  // At 100 tps with 4 peers (client ceiling ~205 tps) nothing saturates:
  // committed throughput tracks the arrival rate.
  EXPECT_NEAR(result.report.end_to_end.throughput_tps, 100.0, 12.0);
  // Latency through all three phases is sub-second at this load.
  EXPECT_GT(result.report.end_to_end.mean_latency_s, 0.3);
  EXPECT_LT(result.report.end_to_end.mean_latency_s, 2.0);
  // Phases are ordered sensibly.
  EXPECT_GT(result.report.execute.mean_latency_s, 0.0);
  EXPECT_GT(result.report.order_and_validate.mean_latency_s, 0.0);
  // Block time is bounded by BatchTimeout (1 s) at this rate.
  EXPECT_LE(result.report.mean_block_time_s, 1.3);
  EXPECT_EQ(result.endorse_failures, 0u);
}

TEST(Integration, DeterministicAcrossRunsWithSameSeed) {
  auto run = [] {
    fabric::ExperimentConfig config =
        fabric::StandardConfig(OrderingType::kRaft, 0, 50);
    config.network.topology.endorsing_peers = 3;
    config.workload.duration = sim::FromSeconds(10);
    config.warmup = sim::FromSeconds(3);
    return fabric::RunExperiment(config);
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.generated, b.generated);
  EXPECT_EQ(a.chain_height, b.chain_height);
  EXPECT_EQ(a.report.end_to_end.completed, b.report.end_to_end.completed);
  EXPECT_EQ(a.messages_sent, b.messages_sent);
  EXPECT_EQ(a.bytes_sent, b.bytes_sent);
}

TEST(Integration, InvalidTransactionsRecordedOnChainButNotInState) {
  NetworkOptions opts = SmallNetwork(OrderingType::kSolo);
  FabricNetwork net(opts);
  net.Start();
  net.Env().Sched().RunUntil(sim::FromSeconds(1));

  auto clients = net.Clients();
  for (int i = 0; i < 6; ++i) {
    proto::ChaincodeInvocation inv;
    inv.chaincode_id = "kvwrite";
    inv.function = "readwrite";
    inv.args = {proto::ToBytes("contested"), proto::ToBytes("v")};
    clients[static_cast<std::size_t>(i) % clients.size()]->Submit(
        std::move(inv));
  }
  net.Env().Sched().RunUntil(sim::FromSeconds(12));

  auto& committer = net.ValidatorPeer().GetCommitter();
  const auto& store = committer.Chain().Store();
  EXPECT_EQ(store.TxCount(), 7u);  // genesis + all six recorded, valid or not
  EXPECT_GT(committer.InvalidTx(), 0u);
  // History only contains the winners.
  const auto history = store.HistoryFor("kvwrite", "contested");
  EXPECT_EQ(history.size(), committer.CommittedTx());
}

}  // namespace
}  // namespace fabricsim
