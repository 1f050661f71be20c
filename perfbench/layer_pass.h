// The layer pass: host time of direct calls into the substrate layers
// (chaincode, crypto, policy, proto, ordering::BlockCutter, ledger) for the
// calls one transaction makes on its way through the network, with inputs
// shaped by the workload.
#pragma once

#include <cstdint>

#include "workloads.h"

namespace perfbench {

/// Host nanoseconds spent in each layer, summed over every tx of the pass,
/// plus the call counts that turn them into per-tx and per-block figures.
struct LayerTotals {
  std::uint64_t txs = 0;
  std::uint64_t blocks = 0;
  std::uint64_t signs = 0;
  std::uint64_t verifies = 0;
  std::uint64_t envelope_bytes = 0;  // summed serialized envelope sizes
  std::uint64_t chaincode_invoke_ns = 0;
  std::uint64_t crypto_sign_ns = 0;
  std::uint64_t crypto_verify_ns = 0;
  std::uint64_t policy_evaluate_ns = 0;
  std::uint64_t proto_serialize_ns = 0;
  std::uint64_t proto_block_make_ns = 0;
  std::uint64_t blockcutter_ns = 0;
  std::uint64_t mvcc_validate_ns = 0;
  std::uint64_t state_commit_ns = 0;
  std::uint64_t block_append_ns = 0;
};

/// Runs whole blocks of transactions through the layers until at least
/// `seconds` of host time has passed. The invocations come from the
/// workload's own generator (same chaincode, key space, value size and
/// seed); the endorsers are planned against the workload's policy; blocks
/// are cut with its BatchSize; and every committing peer of its topology
/// validates and commits every block against its own state.
LayerTotals RunLayerPass(const Workload& workload, double seconds);

}  // namespace perfbench
