#include "peer/committer.h"

#include <algorithm>
#include <string_view>
#include <vector>

#include "obs/trace.h"

namespace fabricsim::peer {

Committer::Committer(sim::Environment& env, sim::Machine& machine,
                     sim::Cpu& ledger_disk, const crypto::MspRegistry& msps,
                     const fabric::Calibration& cal,
                     metrics::TxTracker* tracker,
                     const CommitterOptions& options)
    : env_(env),
      machine_(machine),
      disk_(ledger_disk),
      msps_(msps),
      cal_(cal),
      tracker_(tracker),
      options_(options),
      msp_cache_(options.optimizations.msp_cache
                     ? std::make_unique<crypto::MspIdentityCache>(msps)
                     : nullptr),
      // Dedicated validation workers at the peer machine's clock speed,
      // living as long as the committer so telemetry can read the station.
      vscc_cpu_(options.optimizations.vscc_workers > 0
                    ? std::make_unique<sim::Cpu>(
                          env.Sched(), options.optimizations.vscc_workers,
                          machine.GetCpu().SpeedFactor())
                    : nullptr) {
  chain_.MutableStore().SetRetention(options_.ledger_retention);
  // The ledger's append-time linkage check re-verifies the data hash
  // independently (defense in depth); the drill must lower both gates or
  // the tampered block still bounces, as a linkage reject, before the
  // invariant can see it.
  chain_.SetDataHashCheckDisabled(options_.data_hash_check_disabled);
}

void Committer::SetPolicy(const std::string& chaincode_id,
                          policy::EndorsementPolicy policy) {
  policies_.insert_or_assign(chaincode_id, std::move(policy));
}

Committer::VsccPlan Committer::PlanVscc(const proto::TransactionEnvelope& tx) {
  const bool shortcircuit = options_.optimizations.policy_shortcircuit;
  // Identities are resolved only where something reads them: through the
  // MSP cache when one is armed (a hit is charged the cheaper cached cost),
  // else from the registry when the short-circuit needs the principals.
  // The full path resolves nothing here: Vscc() checks the signers through
  // the envelope's own signature verdicts.
  const auto lookup = [&](proto::BytesView cert) {
    if (msp_cache_ != nullptr) return msp_cache_->Lookup(cert);
    return crypto::MspIdentityCache::Result{
        shortcircuit ? msps_.CachedCertificate(cert) : nullptr, false};
  };
  // Creator first, then every endorser in order: the cache's hits depend
  // on this sequence.
  const auto creator = lookup(tx.creator_cert);
  VsccPlan plan{proto::ValidationCode::kValid,
                creator.hit ? cal_.vscc_cached_base_cpu : cal_.vscc_base_cpu};
  endorsers_.clear();
  for (const auto& e : tx.endorsements) {
    endorsers_.push_back(lookup(e.endorser_cert));
  }
  // Per-endorsement cost, charged only for endorsements whose signature is
  // actually verified; principal extraction beyond that is folded into the
  // base cost (see fabric/optimizations.h).
  const auto endorse_cost = [&](std::size_t i) {
    return endorsers_[i].hit ? cal_.vscc_cached_per_endorsement_cpu
                             : cal_.vscc_per_endorsement_cpu;
  };
  const std::size_t n = endorsers_.size();

  if (!shortcircuit) {
    // Full VSCC verifies every endorsement. With no cache this is
    // vscc_base_cpu + n * vscc_per_endorsement_cpu.
    for (std::size_t i = 0; i < n; ++i) plan.cost += endorse_cost(i);
    plan.code = Vscc(tx);
    return plan;
  }

  // Short-circuit plan: check the client signature, find the smallest
  // endorsement prefix that can satisfy the policy, and verify only that
  // prefix. Honest divergence from the full path (mirroring Fabric's own
  // short-circuit evaluator): an invalid endorsement *after* the satisfying
  // prefix is never examined, and an unsatisfiable endorsement set reports
  // kEndorsementPolicyFailure without looking at its signatures.
  if (creator.cert == nullptr || !tx.ClientSignatureValid(*creator.cert)) {
    plan.code = proto::ValidationCode::kBadSignature;
    return plan;
  }
  const auto pit = policies_.find(tx.chaincode_id);
  if (pit == policies_.end()) {
    plan.code = proto::ValidationCode::kInvalidOtherReason;
    return plan;
  }
  // Unverified principals: a certificate the registry rejects yields a
  // principal that can match nothing, so a forged identity can never help
  // satisfy the policy.
  std::vector<crypto::Principal> principals;
  principals.reserve(n);
  for (const auto& id : endorsers_) {
    principals.push_back(
        id.cert != nullptr
            ? crypto::Principal{id.cert->msp_id, id.cert->role}
            : crypto::Principal{"", crypto::Role::kClient});
  }
  const auto prefix = policy::SatisfiedPrefix(pit->second, principals);
  if (!prefix) {
    plan.code = proto::ValidationCode::kEndorsementPolicyFailure;
    return plan;
  }
  for (std::size_t i = 0; i < *prefix; ++i) {
    plan.cost += endorse_cost(i);  // the failing check is still paid for
    if (endorsers_[i].cert == nullptr ||
        !tx.EndorsementValid(i, *endorsers_[i].cert)) {
      plan.code = proto::ValidationCode::kBadSignature;
      return plan;
    }
  }
  return plan;
}

void Committer::InstallGenesis(proto::BlockPtr genesis) {
  if (chain_.Height() != 0 || !chain_.Append(std::move(genesis), {})) {
    return;  // already bootstrapped
  }
  state_.SetHeight(1);
  next_commit_ = 1;
}

proto::ValidationCode Committer::Vscc(
    const proto::TransactionEnvelope& tx) const {
  // Signature half of VSCC: client signature over the envelope body plus
  // every endorsement over the endorsed payload. The verdict is memoized on
  // the shared envelope — every peer validates the same immutable bytes
  // against the same trust registry, so recomputation is pure redundancy
  // (each peer still pays the full CPU cost in simulated time).
  const auto& signers = tx.VerifiedSigners(msps_);
  if (!signers) return proto::ValidationCode::kBadSignature;

  // Evaluate the chaincode's endorsement policy (policy-dependent: not
  // memoized; different committers may hold different policies).
  auto it = policies_.find(tx.chaincode_id);
  if (it == policies_.end()) {
    return proto::ValidationCode::kInvalidOtherReason;
  }
  if (!policy::Satisfied(it->second, *signers)) {
    return proto::ValidationCode::kEndorsementPolicyFailure;
  }
  return proto::ValidationCode::kValid;
}

void Committer::OnBlock(proto::BlockPtr block, OnCommit on_commit) {
  const std::uint64_t number = block->header.number;
  if (number < next_commit_ || pending_.count(number) != 0 ||
      ready_.count(number) != 0 || deferred_.count(number) != 0) {
    return;  // duplicate delivery (multiple OSN subscriptions / re-delivery)
  }

  // Structural checks: hash-chain linkage is re-validated at append time;
  // the orderer signature and the header's data hash are checked here. A
  // rejected block never enters the pipeline, so next_commit_ stays
  // unsatisfied and the deliver watchdog's gap repair re-fetches an honest
  // copy from the ordering service's canonical history.
  const crypto::Certificate* orderer_cert =
      msps_.CachedCertificate(block->metadata.orderer_cert);
  if (orderer_cert == nullptr || !block->OrdererSignatureValid(*orderer_cert)) {
    ++rejected_orderer_sig_;
    return;
  }
  // Data-hash re-verification: a payload tampered in flight keeps the
  // signed header but no longer hashes to header.data_hash. The Merkle root
  // is memoized on the shared block, so the honest path pays one host-side
  // hash per block and zero simulated CPU — results stay byte-identical.
  if (!options_.data_hash_check_disabled &&
      block->DataHash() != block->header.data_hash) {
    ++rejected_data_hash_;
    return;
  }

  if (options_.max_pipeline_blocks > 0 &&
      pending_.size() + ready_.size() >= options_.max_pipeline_blocks) {
    // Bounded validation pipeline: park the block until VSCC/commit drain.
    ++deferred_total_;
    deferred_.emplace(number,
                      DeferredBlock{std::move(block), std::move(on_commit)});
    return;
  }
  Admit(number, std::move(block), std::move(on_commit));
}

void Committer::Admit(std::uint64_t number, proto::BlockPtr block,
                      OnCommit on_commit) {
  PendingBlock pb;
  pb.block = std::move(block);
  pb.vscc_codes.assign(pb.block->transactions.size(),
                       proto::ValidationCode::kValid);
  pb.vscc_remaining = pb.block->transactions.size();
  pb.on_commit = std::move(on_commit);
  pending_.emplace(number, std::move(pb));
  StartVscc(number);
}

void Committer::PromoteDeferred() {
  while (!deferred_.empty() &&
         (options_.max_pipeline_blocks == 0 ||
          pending_.size() + ready_.size() < options_.max_pipeline_blocks)) {
    auto it = deferred_.begin();
    const std::uint64_t number = it->first;
    DeferredBlock d = std::move(it->second);
    deferred_.erase(it);
    if (number < next_commit_) continue;  // superseded while parked
    Admit(number, std::move(d.block), std::move(d.on_commit));
  }
}

void Committer::StartVscc(std::uint64_t number) {
  auto it = pending_.find(number);
  if (it == pending_.end()) return;
  PendingBlock& pb = it->second;

  if (pb.block->transactions.empty()) {
    OnVsccDone(number);
    return;
  }

  const bool tracing = env_.Trace() != nullptr && tracker_ != nullptr;
  if (tracing) pb.vscc_done_at.assign(pb.block->transactions.size(), 0);

  // Fan one VSCC job per transaction onto the validation station: the
  // peer CPU, or the dedicated simulated worker station under
  // --opt-vscc-workers (a model knob: the jobs, like the rest of the
  // experiment, run on one host thread). Verdict and cost are planned
  // here, in submission order.
  const sim::SimTime enqueued = env_.Now();
  for (std::size_t i = 0; i < pb.block->transactions.size(); ++i) {
    const VsccPlan plan = PlanVscc(pb.block->transactions[i]);
    VsccCpuRef().Submit(plan.cost, [this, number, i, enqueued, plan] {
      auto pit = pending_.find(number);
      if (pit == pending_.end()) return;
      PendingBlock& blk = pit->second;
      blk.vscc_codes[i] = plan.code;
      if (auto* tr = env_.Trace(); tr != nullptr && tracker_ != nullptr) {
        tr->RecordResourceSpan(tr->PidFor(machine_.Name()), "vscc",
                               blk.block->transactions[i].tx_id, enqueued,
                               env_.Now(), VsccCpuRef().ScaledCost(plan.cost));
        if (i < blk.vscc_done_at.size()) blk.vscc_done_at[i] = env_.Now();
      }
      if (--blk.vscc_remaining == 0) OnVsccDone(number);
    });
  }
}

void Committer::OnVsccDone(std::uint64_t number) {
  auto it = pending_.find(number);
  if (it == pending_.end()) return;
  PendingBlock& pb = it->second;
  if (auto* tr = env_.Trace(); tr != nullptr && tracker_ != nullptr) {
    // Transactions whose VSCC finished early wait for the block's stragglers
    // before the serial stage can even be considered.
    pb.all_vscc_done = env_.Now();
    const int pid = tr->PidFor(machine_.Name());
    for (std::size_t i = 0; i < pb.block->transactions.size() &&
                            i < pb.vscc_done_at.size();
         ++i) {
      if (pb.vscc_done_at[i] > 0 && pb.vscc_done_at[i] < pb.all_vscc_done) {
        tr->Record(pid, obs::SpanKind::kQueue, "vscc.straggle",
                   pb.block->transactions[i].tx_id, pb.vscc_done_at[i],
                   pb.all_vscc_done);
      }
    }
  }
  ready_.emplace(number, std::move(it->second));
  pending_.erase(it);
  TrySerialCommit();
}

void Committer::TrySerialCommit() {
  if (serial_busy_) return;
  auto it = ready_.find(next_commit_);
  if (it == ready_.end()) return;
  serial_busy_ = true;
  PendingBlock pb = std::move(it->second);
  ready_.erase(it);

  const auto tx_count = pb.block->transactions.size();
  // Bulk commit replaces the three per-tx write costs with one batched
  // ledger write per block: a larger fixed cost, a small residual per tx.
  const sim::SimDuration cost =
      options_.optimizations.bulk_commit
          ? cal_.bulk_block_write_base_disk +
                static_cast<sim::SimDuration>(tx_count) *
                    cal_.bulk_write_per_tx_disk
          : cal_.block_write_base_disk +
                static_cast<sim::SimDuration>(tx_count) *
                    (cal_.mvcc_per_tx_disk + cal_.state_write_per_tx_disk +
                     cal_.block_write_per_tx_disk);
  disk_.Submit(cost, [this, cost, pb = std::move(pb)]() mutable {
    if (auto* tr = env_.Trace(); tr != nullptr && tracker_ != nullptr) {
      // One commit span per transaction: queue half covers waiting for the
      // in-order serial stage + the disk, service half the MVCC + write.
      const int pid = tr->PidFor(machine_.Name() + "/disk");
      const sim::SimTime enq =
          pb.all_vscc_done > 0 ? pb.all_vscc_done : env_.Now();
      for (const auto& tx : pb.block->transactions) {
        tr->RecordResourceSpan(pid, "commit", tx.tx_id, enq, env_.Now(),
                               disk_.ScaledCost(cost));
      }
    }
    SerialCommit(std::move(pb));
  });
}

void Committer::SerialCommit(PendingBlock pb) {
  // Duplicate tx-id screening (Fabric flags later duplicates invalid).
  // The failpoint skips it so chaos tests can observe double commits.
  std::vector<proto::ValidationCode> codes = std::move(pb.vscc_codes);
  if (!options_.dedup_disabled) {
    const auto& txs = pb.block->transactions;
    auto flag = [&](std::size_t i) {
      if (codes[i] == proto::ValidationCode::kValid) {
        codes[i] = proto::ValidationCode::kDuplicateTxId;
        ++duplicate_tx_rejects_;
      }
    };
    // In-block repeats: sorted (id, index) views put equal ids side by side,
    // earliest first, so every later occurrence is flagged. The views point
    // into the shared immutable block, which outlives this call.
    dedup_screen_.clear();
    for (std::size_t i = 0; i < txs.size(); ++i) {
      dedup_screen_.emplace_back(txs[i].tx_id, i);
    }
    std::sort(dedup_screen_.begin(), dedup_screen_.end());
    for (std::size_t k = 1; k < dedup_screen_.size(); ++k) {
      if (dedup_screen_[k].first == dedup_screen_[k - 1].first) {
        flag(dedup_screen_[k].second);
      }
    }
    // Ids already on the ledger.
    for (std::size_t i = 0; i < txs.size(); ++i) {
      if (chain_.Store().HasTransaction(txs[i].tx_id)) flag(i);
    }
  }

  // MVCC with the VSCC verdicts folded in.
  const ledger::MvccResult mvcc =
      ledger::MvccValidator::Validate(*pb.block, state_, &codes);

  // The validation codes are stored beside the shared immutable block
  // (equivalent to Fabric filling the block metadata before the write,
  // without deep-copying the block on every peer).
  if (!chain_.Append(pb.block, mvcc.codes)) {
    // Linkage failure — an orderer bug or a tampered stream that slipped
    // the structural checks. Counted (never silently discarded: the
    // invariant oracle flags any unexplained reject) and left uncommitted,
    // so next_commit_ stays put and the deliver watchdog's gap repair
    // re-fetches the honest copy.
    ++rejected_linkage_;
    serial_busy_ = false;
    TrySerialCommit();
    PromoteDeferred();
    return;
  }
  ledger::MvccValidator::Commit(*pb.block, mvcc.codes, state_);

  for (std::size_t i = 0; i < pb.block->transactions.size(); ++i) {
    if (mvcc.codes[i] == proto::ValidationCode::kValid) {
      ++committed_tx_;
      commit_log_.Record(env_.Now());
    } else {
      ++invalid_tx_;
    }
    if (tracker_ != nullptr) {
      tracker_->MarkCommitted(pb.block->transactions[i].tx_id, env_.Now(),
                              mvcc.codes[i]);
    }
  }

  ++next_commit_;
  serial_busy_ = false;

  if (pb.on_commit) {
    pb.on_commit(CommittedBlock{pb.block, mvcc.codes});
  }
  TrySerialCommit();
  PromoteDeferred();
}

}  // namespace fabricsim::peer
