// Token transfer under contention: the classic money-transfer scenario the
// paper's workload-design discussion motivates (read-write conflicts).
//
// Runs a Kafka-ordered network, drives concurrent transfers over a small
// account pool, and shows how Fabric's optimistic execute-order-validate
// model turns contention into MVCC_READ_CONFLICT transactions — recorded on
// the chain but without effect on state — while conserving total funds.
//
// Build & run:  cmake --build build && ./build/examples/token_transfer
#include <iostream>

#include "client/workload.h"
#include "fabric/network_builder.h"

using namespace fabricsim;

int main() {
  constexpr int kAccounts = 8;
  constexpr std::int64_t kInitialBalance = 1000;

  fabric::NetworkOptions opts;
  opts.topology.ordering = fabric::OrderingType::kKafka;
  opts.topology.endorsing_peers = 4;
  opts.topology.kafka_brokers = 3;
  opts.topology.zookeepers = 3;
  opts.seeded_accounts = kAccounts;
  opts.seeded_balance = kInitialBalance;
  opts.seed = 2024;

  fabric::FabricNetwork net(opts);
  net.Start();

  // Drive 60 tps of transfers over just 8 hot accounts for 12 seconds.
  client::WorkloadConfig wl;
  wl.kind = client::WorkloadKind::kTokenTransfer;
  wl.rate_tps = 60;
  wl.duration = sim::FromSeconds(12);
  wl.key_space = kAccounts;
  wl.start = sim::FromSeconds(3);  // let Kafka elect its controller first
  client::WorkloadController controller(net.Env(), net.Clients(), wl);
  controller.Start();

  net.Env().Sched().RunUntil(sim::FromSeconds(30));

  auto& committer = net.ValidatorPeer().GetCommitter();
  std::cout << "transfers submitted:   " << controller.Generated() << "\n";
  std::cout << "committed valid:       " << committer.CommittedTx() - 0
            << "\n";
  std::cout << "mvcc conflicts:        " << committer.InvalidTx() << "\n";
  std::cout << "blocks on chain:       " << committer.Chain().Height() << "\n";

  std::int64_t total = 0;
  std::cout << "final balances:        ";
  for (const auto& acct : client::WorkloadAccounts(kAccounts)) {
    const auto v = committer.State().Get("token", acct);
    const std::int64_t balance = v ? std::stoll(proto::ToString(v->value)) : 0;
    total += balance;
    std::cout << balance << " ";
  }
  std::cout << "\n";
  std::cout << "total (conserved):     " << total << " / "
            << kAccounts * kInitialBalance << "\n";

  // Inspect one account's write history (read back from the block store).
  const auto history =
      committer.Chain().Store().HistoryFor("token", "acct0");
  std::cout << "acct0 write history:   " << history.size()
            << " committed updates\n";

  const bool ok = total == kAccounts * kInitialBalance &&
                  committer.Chain().Audit().ok && committer.CommittedTx() > 0;
  std::cout << (ok ? "OK: funds conserved under contention\n"
                   : "FAILED: conservation violated\n");
  return ok ? 0 : 1;
}
