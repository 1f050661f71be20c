// Committer: the validate phase of a peer.
//
// Fabric v1.4 validates a delivered block in two stages:
//   1. VSCC, parallel: per transaction, verify every endorsement signature
//      and evaluate the chaincode's endorsement policy — a worker pool over
//      the peer's cores. This is the paper's AND-policy bottleneck.
//   2. Serial: MVCC read-conflict check, then the atomic ledger write
//      (block store append + state DB update), a single-writer, fsync-bound
//      path. This is the paper's OR-policy bottleneck.
// Blocks commit strictly in order.
//
// Everything that shapes the pipeline (the pipeline bound, ledger
// retention, the validate-phase knobs and the two failpoints) is a
// CommitterOptions fixed at construction, so it is in force from the first
// block on. Every transaction takes the same two steps: PlanVscc computes
// its verdict and simulated cost at submission, and SerialCommit applies
// the valid writes through MvccValidator::Commit.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "crypto/ca.h"
#include "crypto/msp_cache.h"
#include "fabric/calibration.h"
#include "fabric/optimizations.h"
#include "ledger/blockchain.h"
#include "ledger/mvcc.h"
#include "ledger/state_db.h"
#include "metrics/phase_stats.h"
#include "metrics/rate_log.h"
#include "policy/evaluator.h"
#include "policy/policy.h"
#include "sim/machine.h"

namespace fabricsim::peer {

/// Result handed to the owner after each block commits.
struct CommittedBlock {
  proto::BlockPtr block;
  std::vector<proto::ValidationCode> codes;
};

/// A committer's construction-time settings. All defaults give the paper's
/// unoptimized, unbounded committer.
struct CommitterOptions {
  /// Caps the validation pipeline (blocks in VSCC + awaiting serial
  /// commit). Excess blocks are deferred and promoted as the pipeline
  /// drains, never shed: a delivered block is acked work, so deferral is
  /// the only policy that keeps "nothing acked is lost" intact. 0 =
  /// unbounded.
  std::size_t max_pipeline_blocks = 0;
  /// Ledger retention for bounded-memory soak runs: keep only the newest
  /// `ledger_retention` blocks resident (0 = all). See
  /// ledger::BlockStore::SetRetention for the dedup-horizon caveat.
  std::uint64_t ledger_retention = 0;
  /// Thakkar-style validate-phase knobs (see fabric/optimizations.h). With
  /// every knob off the commit pipeline is the unoptimized committer: the
  /// VSCC cost formula, the serial disk cost and the CPU the jobs run on.
  fabric::OptimizationOptions optimizations{};
  /// Failpoint: skip duplicate tx-id screening in SerialCommit. Exists only
  /// so chaos campaigns can prove the double-commit invariant fires (a
  /// client resubmission then commits twice). Never set in production runs.
  bool dedup_disabled = false;
  /// Failpoint: skip the commit-time data-hash re-verification, and the
  /// ledger's append-time re-check of it, so planted tamper-block drills
  /// can show the no-forged-commit invariant fire. Never set in production
  /// runs.
  bool data_hash_check_disabled = false;
};

class Committer {
 public:
  using OnCommit = std::function<void(const CommittedBlock&)>;

  Committer(sim::Environment& env, sim::Machine& machine,
            sim::Cpu& ledger_disk, const crypto::MspRegistry& msps,
            const fabric::Calibration& cal, metrics::TxTracker* tracker,
            const CommitterOptions& options = {});

  /// Registers the endorsement policy for a chaincode (channel config).
  void SetPolicy(const std::string& chaincode_id,
                 policy::EndorsementPolicy policy);

  /// Installs the channel's genesis block (block 0) directly, as joining a
  /// channel does in Fabric. User blocks then start at 1, which keeps the
  /// (block, tx) state versions of seeded genesis data (version {0,0})
  /// distinct from any transaction's writes.
  void InstallGenesis(proto::BlockPtr genesis);

  /// Entry point: a block arrived from the ordering service. Re-delivered
  /// or out-of-order blocks are buffered / dropped as appropriate.
  void OnBlock(proto::BlockPtr block, OnCommit on_commit);

  /// The settings this committer was built with.
  [[nodiscard]] const CommitterOptions& Options() const { return options_; }
  /// The MSP identity cache, when --opt-msp-cache armed one (else nullptr).
  [[nodiscard]] const crypto::MspIdentityCache* MspCache() const {
    return msp_cache_.get();
  }
  /// The dedicated VSCC worker station, when --opt-vscc-workers armed one
  /// (else nullptr: VSCC shares the peer CPU).
  [[nodiscard]] const sim::Cpu* VsccWorkerCpu() const {
    return vscc_cpu_.get();
  }

  /// Blocks currently in VSCC or awaiting serial commit.
  [[nodiscard]] std::size_t PipelineDepth() const {
    return pending_.size() + ready_.size();
  }
  /// Blocks parked behind the bounded pipeline.
  [[nodiscard]] std::size_t DeferredBlocks() const { return deferred_.size(); }
  [[nodiscard]] std::uint64_t DeferredTotal() const { return deferred_total_; }

  /// True when a later block is buffered anywhere in the pipeline but the
  /// next block to commit never arrived: the deliver stream dropped it, and
  /// nothing in the normal path will resend it. The deliver watchdog uses
  /// this to re-subscribe and have the OSN backfill the hole.
  [[nodiscard]] bool AwaitingGapBlock() const {
    if (pending_.count(next_commit_) != 0 ||
        ready_.count(next_commit_) != 0 ||
        deferred_.count(next_commit_) != 0) {
      return false;  // the next block is in flight, just not committed yet
    }
    auto has_later = [&](const auto& m) {
      return !m.empty() && m.rbegin()->first > next_commit_;
    };
    return has_later(pending_) || has_later(ready_) || has_later(deferred_);
  }
  /// Block number SerialCommit is waiting for.
  [[nodiscard]] std::uint64_t NextCommit() const { return next_commit_; }

  /// Blocks rejected before/at commit, by cause. All zero on an honest run
  /// — the invariant oracle flags nonzero counts without a scheduled
  /// Byzantine fault as a violation (unexplained-reject) instead of letting
  /// the commit path discard blocks silently.
  [[nodiscard]] std::uint64_t RejectedOrdererSig() const {
    return rejected_orderer_sig_;
  }
  [[nodiscard]] std::uint64_t RejectedDataHash() const {
    return rejected_data_hash_;
  }
  [[nodiscard]] std::uint64_t RejectedLinkage() const {
    return rejected_linkage_;
  }
  [[nodiscard]] std::uint64_t RejectedBlocks() const {
    return rejected_orderer_sig_ + rejected_data_hash_ + rejected_linkage_;
  }
  /// Transactions flagged kDuplicateTxId by the dedup screen (replay
  /// rejection attribution; benign resubmissions also land here).
  [[nodiscard]] std::uint64_t DuplicateTxRejects() const {
    return duplicate_tx_rejects_;
  }

  [[nodiscard]] const ledger::Blockchain& Chain() const { return chain_; }
  /// Mutable chain access for oracle self-tests (crafting forks and phantom
  /// commits). Production code only mutates the chain via SerialCommit.
  [[nodiscard]] ledger::Blockchain& MutableChainForTest() { return chain_; }
  [[nodiscard]] const ledger::StateDb& State() const { return state_; }
  [[nodiscard]] ledger::StateDb& MutableState() { return state_; }
  [[nodiscard]] std::uint64_t CommittedTx() const { return committed_tx_; }
  [[nodiscard]] std::uint64_t InvalidTx() const { return invalid_tx_; }

  /// Per-second log of valid commits (the paper's rate double-check on the
  /// receive side).
  [[nodiscard]] const metrics::RateLog& CommitLog() const {
    return commit_log_;
  }

  /// VSCC for one transaction — public for unit tests.
  [[nodiscard]] proto::ValidationCode Vscc(
      const proto::TransactionEnvelope& tx) const;

 private:
  struct PendingBlock {
    proto::BlockPtr block;
    std::vector<proto::ValidationCode> vscc_codes;
    std::size_t vscc_remaining = 0;
    OnCommit on_commit;
    // Tracing only: per-tx VSCC completion times and when the whole block
    // finished VSCC (straggler + commit-queue spans).
    std::vector<sim::SimTime> vscc_done_at;
    sim::SimTime all_vscc_done = 0;
  };

  struct DeferredBlock {
    proto::BlockPtr block;
    OnCommit on_commit;
  };

  /// One transaction's VSCC verdict and simulated cost, planned when its
  /// job is submitted, in deterministic submission order (MSP-cache hits
  /// and short-circuit savings depend on that order). The verdict depends
  /// only on the immutable envelope, the registry and the policies, none
  /// of which change while the job waits on the station.
  struct VsccPlan {
    proto::ValidationCode code = proto::ValidationCode::kValid;
    sim::SimDuration cost = 0;
  };
  [[nodiscard]] VsccPlan PlanVscc(const proto::TransactionEnvelope& tx);
  [[nodiscard]] sim::Cpu& VsccCpuRef() {
    return vscc_cpu_ ? *vscc_cpu_ : machine_.GetCpu();
  }

  void Admit(std::uint64_t number, proto::BlockPtr block, OnCommit on_commit);
  void PromoteDeferred();
  void StartVscc(std::uint64_t number);
  void OnVsccDone(std::uint64_t number);
  void TrySerialCommit();
  void SerialCommit(PendingBlock pending);

  sim::Environment& env_;
  sim::Machine& machine_;
  sim::Cpu& disk_;
  const crypto::MspRegistry& msps_;
  const fabric::Calibration& cal_;
  metrics::TxTracker* tracker_;

  std::unordered_map<std::string, policy::EndorsementPolicy> policies_;

  const CommitterOptions options_;
  std::unique_ptr<crypto::MspIdentityCache> msp_cache_;
  std::unique_ptr<sim::Cpu> vscc_cpu_;  // dedicated VSCC workers

  ledger::Blockchain chain_;
  ledger::StateDb state_;

  // Blocks by number: received, undergoing VSCC, awaiting serial commit.
  std::map<std::uint64_t, PendingBlock> pending_;
  std::map<std::uint64_t, PendingBlock> ready_;  // VSCC finished
  // Parked behind the bounded pipeline, lowest number promoted first.
  std::map<std::uint64_t, DeferredBlock> deferred_;
  // PlanVscc's endorser identities, reused across transactions.
  std::vector<crypto::MspIdentityCache::Result> endorsers_;
  // SerialCommit's duplicate screen, reused across blocks: (tx id, index).
  std::vector<std::pair<std::string_view, std::size_t>> dedup_screen_;
  std::uint64_t deferred_total_ = 0;
  std::uint64_t rejected_orderer_sig_ = 0;
  std::uint64_t rejected_data_hash_ = 0;
  std::uint64_t rejected_linkage_ = 0;
  std::uint64_t duplicate_tx_rejects_ = 0;
  std::uint64_t next_commit_ = 0;
  bool serial_busy_ = false;
  std::uint64_t committed_tx_ = 0;
  std::uint64_t invalid_tx_ = 0;
  metrics::RateLog commit_log_{"committed"};
};

}  // namespace fabricsim::peer
