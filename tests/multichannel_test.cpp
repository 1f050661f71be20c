// Multi-channel deployments (§II of the paper: a channel is a private
// blockchain subnet, the unit of ordering — one Kafka partition per
// channel). Peers keep one ledger per channel; consenters are per-channel.
#include <gtest/gtest.h>

#include "client/workload.h"
#include "fabric/network_builder.h"

namespace fabricsim {
namespace {

using fabric::FabricNetwork;
using fabric::NetworkOptions;
using fabric::OrderingType;

NetworkOptions TwoChannels(OrderingType ordering) {
  NetworkOptions opts;
  opts.topology.ordering = ordering;
  opts.topology.endorsing_peers = 4;
  opts.topology.osns = 3;
  opts.channels = 2;
  opts.seeded_accounts = 10;
  opts.seed = 77;
  return opts;
}

void SubmitKv(client::Client* c, const std::string& key) {
  proto::ChaincodeInvocation inv;
  inv.chaincode_id = "kvwrite";
  inv.function = "write";
  inv.args = {proto::ToBytes(key), proto::ToBytes("v")};
  c->Submit(std::move(inv));
}

TEST(MultiChannel, ChannelIdsAreDerived) {
  FabricNetwork net(TwoChannels(OrderingType::kSolo));
  EXPECT_EQ(net.ChannelCount(), 2);
  EXPECT_EQ(net.ChannelId(0), "mychannel0");
  EXPECT_EQ(net.ChannelId(1), "mychannel1");
  // Single-channel networks keep the plain name.
  NetworkOptions single;
  single.topology.endorsing_peers = 1;
  FabricNetwork net1(single);
  EXPECT_EQ(net1.ChannelId(0), "mychannel");
}

TEST(MultiChannel, PeersJoinAllChannelsWithSeparateLedgers) {
  FabricNetwork net(TwoChannels(OrderingType::kSolo));
  for (std::size_t p = 0; p < net.PeerCount(); ++p) {
    EXPECT_EQ(net.Peer(p).ChannelCount(), 2u);
    EXPECT_TRUE(net.Peer(p).HasChannel("mychannel0"));
    EXPECT_TRUE(net.Peer(p).HasChannel("mychannel1"));
    // Each channel has its own genesis-anchored chain.
    EXPECT_EQ(net.Peer(p).GetCommitter("mychannel0").Chain().Height(), 1u);
    EXPECT_EQ(net.Peer(p).GetCommitter("mychannel1").Chain().Height(), 1u);
    // Distinct genesis blocks (channel id in the config tx).
    EXPECT_NE(net.Peer(p).GetCommitter("mychannel0").Chain().TipHash(),
              net.Peer(p).GetCommitter("mychannel1").Chain().TipHash());
  }
}

TEST(MultiChannel, EveryPeerStartsFromTheSameSeededState) {
  NetworkOptions opts = TwoChannels(OrderingType::kSolo);
  opts.seeded_accounts = 300;
  FabricNetwork net(opts);
  const std::vector<std::pair<std::string, std::string>> sampled = {
      {"token", "acct0"},          {"token", "acct299"},
      {"smallbank", "chk:acct7"},  {"smallbank", "sav:acct150"},
      {"smallbank", "sav:acct299"}};
  for (int c = 0; c < net.ChannelCount(); ++c) {
    const std::string ch = net.ChannelId(c);
    for (std::size_t p = 0; p < net.PeerCount(); ++p) {
      const ledger::StateDb& state = net.Peer(p).GetCommitter(ch).State();
      EXPECT_EQ(state.KeyCount(), 3 * opts.seeded_accounts) << ch << p;
      EXPECT_EQ(state.Height(), 1u) << ch << p;
      for (const auto& [ns, key] : sampled) {
        const auto v = state.Get(ns, key);
        ASSERT_TRUE(v.has_value()) << ch << p << key;
        EXPECT_EQ(proto::ToString(v->value),
                  std::to_string(opts.seeded_balance));
        EXPECT_EQ(v->version, (proto::KeyVersion{0, 0}));
      }
      EXPECT_FALSE(state.Get("token", "acct300").has_value());
    }
  }

  // Each peer owns its copy: writing one leaves the others untouched.
  ledger::StateDb& first = net.Peer(0).GetCommitter("mychannel0")
                               .MutableState();
  first.Put("token", "acct0", proto::ToBytes("1"), proto::KeyVersion{5, 0});
  first.Delete("smallbank", "chk:acct7");
  for (std::size_t p = 1; p < net.PeerCount(); ++p) {
    for (int c = 0; c < net.ChannelCount(); ++c) {
      const auto& other = net.Peer(p).GetCommitter(net.ChannelId(c)).State();
      EXPECT_EQ(other.Get("token", "acct0")->version,
                (proto::KeyVersion{0, 0}));
      EXPECT_TRUE(other.Get("smallbank", "chk:acct7").has_value());
    }
  }
  EXPECT_TRUE(net.Peer(0)
                  .GetCommitter("mychannel1")
                  .State()
                  .Get("smallbank", "chk:acct7")
                  .has_value());
}

TEST(MultiChannel, ClientsAreBoundRoundRobin) {
  FabricNetwork net(TwoChannels(OrderingType::kSolo));
  // 4 clients, 2 channels: tx from client 0 lands on mychannel0, from
  // client 1 on mychannel1, etc. Verify through committed state isolation.
  net.Start();
  net.Env().Sched().RunUntil(sim::FromSeconds(1));
  auto clients = net.Clients();
  ASSERT_EQ(clients.size(), 4u);
  SubmitKv(clients[0], "only-on-0");
  SubmitKv(clients[1], "only-on-1");
  net.Env().Sched().RunUntil(sim::FromSeconds(10));

  auto& peer = net.ValidatorPeer();
  EXPECT_TRUE(peer.GetCommitter("mychannel0")
                  .State()
                  .Get("kvwrite", "only-on-0")
                  .has_value());
  EXPECT_FALSE(peer.GetCommitter("mychannel0")
                   .State()
                   .Get("kvwrite", "only-on-1")
                   .has_value());
  EXPECT_TRUE(peer.GetCommitter("mychannel1")
                  .State()
                  .Get("kvwrite", "only-on-1")
                  .has_value());
  EXPECT_FALSE(peer.GetCommitter("mychannel1")
                   .State()
                   .Get("kvwrite", "only-on-0")
                   .has_value());
}

TEST(MultiChannel, LaterChannelCommittersCarryTheBuildOptions) {
  // Committer settings are fixed when a peer is built and reach the
  // committer of every channel it joins, not only the first one's.
  NetworkOptions opts = TwoChannels(OrderingType::kSolo);
  opts.optimizations.msp_cache = true;
  opts.optimizations.vscc_workers = 3;
  opts.optimizations.bulk_commit = true;
  opts.optimizations.policy_shortcircuit = true;
  opts.overload.enabled = true;
  opts.overload.committer_max_blocks = 5;
  opts.retention.ledger_blocks = 2;
  FabricNetwork net(opts);
  for (std::size_t p = 0; p < net.PeerCount(); ++p) {
    const peer::Committer& c = net.Peer(p).GetCommitter("mychannel1");
    EXPECT_NE(c.MspCache(), nullptr) << p;
    ASSERT_NE(c.VsccWorkerCpu(), nullptr) << p;
    EXPECT_EQ(c.VsccWorkerCpu()->Cores(), 3) << p;
    EXPECT_EQ(c.Options().max_pipeline_blocks, 5u) << p;
    EXPECT_TRUE(c.Options().optimizations.bulk_commit) << p;
    EXPECT_TRUE(c.Options().optimizations.policy_shortcircuit) << p;
  }

  // Retention is in force on channel 1: after four blocks of traffic the
  // ledger keeps only the newest two. Odd clients are bound to channel 1.
  net.Start();
  auto clients = net.Clients();
  for (int round = 0; round < 4; ++round) {
    net.Env().Sched().RunUntil(sim::FromSeconds(1 + 3 * round));
    SubmitKv(clients[1], "r" + std::to_string(round));
  }
  net.Env().Sched().RunUntil(sim::FromSeconds(16));
  const auto& store =
      net.ValidatorPeer().GetCommitter("mychannel1").Chain().Store();
  EXPECT_GE(store.Height(), 5u);
  EXPECT_EQ(store.ResidentBlocks(), 2u);
  EXPECT_EQ(store.FirstBlockNumber(), store.Height() - 2);
  EXPECT_EQ(clients[1]->CommittedValid(), 4u);
}

class MultiChannelEndToEnd : public ::testing::TestWithParam<OrderingType> {};

TEST_P(MultiChannelEndToEnd, BothChannelsCommitIndependently) {
  FabricNetwork net(TwoChannels(GetParam()));
  net.Start();
  net.Env().Sched().RunUntil(sim::FromSeconds(3));
  auto clients = net.Clients();
  for (int i = 0; i < 16; ++i) {
    SubmitKv(clients[static_cast<std::size_t>(i) % clients.size()],
             "k" + std::to_string(i));
  }
  net.Env().Sched().RunUntil(sim::FromSeconds(18));

  std::uint64_t committed = 0;
  for (auto* c : clients) committed += c->CommittedValid();
  EXPECT_EQ(committed, 16u);

  auto& peer = net.ValidatorPeer();
  const auto h0 = peer.GetCommitter("mychannel0").Chain().Height();
  const auto h1 = peer.GetCommitter("mychannel1").Chain().Height();
  EXPECT_GT(h0, 1u);
  EXPECT_GT(h1, 1u);
  EXPECT_TRUE(peer.GetCommitter("mychannel0").Chain().Audit().ok);
  EXPECT_TRUE(peer.GetCommitter("mychannel1").Chain().Audit().ok);
}

INSTANTIATE_TEST_SUITE_P(Orderings, MultiChannelEndToEnd,
                         ::testing::Values(OrderingType::kSolo,
                                           OrderingType::kKafka,
                                           OrderingType::kRaft),
                         [](const auto& info) {
                           return fabric::OrderingTypeName(info.param);
                         });

TEST(MultiChannel, KafkaElectsOneLeaderPerPartition) {
  FabricNetwork net(TwoChannels(OrderingType::kKafka));
  net.Start();
  net.Env().Sched().RunUntil(sim::FromSeconds(3));
  for (int c = 0; c < 2; ++c) {
    int leaders = 0;
    for (auto& b : net.Brokers(c)) leaders += b->IsPartitionLeader() ? 1 : 0;
    EXPECT_EQ(leaders, 1) << "channel " << c;
  }
}

TEST(MultiChannel, RaftElectsOneLeaderPerChannelGroup) {
  FabricNetwork net(TwoChannels(OrderingType::kRaft));
  net.Start();
  net.Env().Sched().RunUntil(sim::FromSeconds(3));
  for (int c = 0; c < 2; ++c) {
    int leaders = 0;
    for (auto& o : net.Rafts(c)) leaders += o->IsLeader() ? 1 : 0;
    EXPECT_EQ(leaders, 1) << "channel " << c;
  }
}

TEST(MultiChannel, TokenPoolsAreIndependentPerChannel) {
  NetworkOptions opts = TwoChannels(OrderingType::kSolo);
  opts.seeded_accounts = 5;
  opts.seeded_balance = 100;
  FabricNetwork net(opts);
  net.Start();
  net.Env().Sched().RunUntil(sim::FromSeconds(1));

  // A transfer on channel 0 must not affect channel 1's balances.
  proto::ChaincodeInvocation inv;
  inv.chaincode_id = "token";
  inv.function = "transfer";
  inv.args = {proto::ToBytes("acct0"), proto::ToBytes("acct1"),
              proto::ToBytes("40")};
  net.Clients()[0]->Submit(std::move(inv));  // client 0 -> channel 0
  net.Env().Sched().RunUntil(sim::FromSeconds(10));

  auto& peer = net.ValidatorPeer();
  EXPECT_EQ(proto::ToString(
                peer.GetCommitter("mychannel0").State().Get("token", "acct0")
                    ->value),
            "60");
  EXPECT_EQ(proto::ToString(
                peer.GetCommitter("mychannel1").State().Get("token", "acct0")
                    ->value),
            "100");
}

}  // namespace
}  // namespace fabricsim
