#include "layer_pass.h"

#include <chrono>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "chaincode/kvwrite.h"
#include "chaincode/smallbank.h"
#include "client/workload.h"
#include "crypto/ca.h"
#include "crypto/msp_cache.h"
#include "ledger/blockchain.h"
#include "ledger/mvcc.h"
#include "ordering/block_cutter.h"
#include "policy/evaluator.h"
#include "sim/rng.h"

namespace perfbench {

namespace fabric = fabricsim::fabric;
namespace chaincode = fabricsim::chaincode;
namespace client = fabricsim::client;
namespace crypto = fabricsim::crypto;
namespace ledger = fabricsim::ledger;
namespace ordering = fabricsim::ordering;
namespace policy = fabricsim::policy;
namespace proto = fabricsim::proto;
namespace sim = fabricsim::sim;

namespace {

using Clock = std::chrono::steady_clock;

// Adds the host time of its own lifetime to one layer's total: a span
// around a loop of calls into that layer.
class Span {
 public:
  explicit Span(std::uint64_t& total) : total_(total), begin_(Clock::now()) {}
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() {
    total_ += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             begin_)
            .count());
  }

 private:
  std::uint64_t& total_;
  Clock::time_point begin_;
};

// One committing peer: its own world state, chain and, with the msp-cache
// knob on, its own identity cache.
struct CommitPeer {
  ledger::StateDb state;
  ledger::Blockchain chain;
  std::unique_ptr<crypto::MspIdentityCache> msp_cache;
};

// A transaction on its way from proposal to envelope.
struct InFlight {
  proto::ChaincodeInvocation invocation;
  proto::Bytes nonce;
  proto::SignedProposal proposal;
  std::vector<std::size_t> endorsers;  // indices into the endorser set
  std::vector<proto::ProposalResponse> responses;
  std::vector<proto::Bytes> response_bytes;
  proto::TransactionEnvelope envelope;
  std::size_t envelope_size = 0;
};

// Blocks a pass runs at least, however short `seconds` is.
constexpr std::uint64_t kMinBlocks = 10;

void Check(bool ok, const char* what) {
  if (!ok) throw std::runtime_error(std::string("layer pass: ") + what);
}

}  // namespace

LayerTotals RunLayerPass(const Workload& workload, double seconds) {
  const fabric::NetworkOptions& options = workload.config.network;
  // The built (never started) network supplies the MSPs, the resolved
  // policy, the clients the generator binds to and the channel name.
  fabric::FabricNetwork net(options);
  const crypto::MspRegistry& msps = net.Msps();
  const policy::EndorsementPolicy& pol = net.Policy();
  const std::string channel = net.ChannelId(0);
  client::WorkloadController generator(net.Env(), net.Clients(),
                                       workload.config.workload);
  const std::size_t clients = net.Clients().size();

  // One endorsing identity per principal of the policy, and one client.
  const std::vector<crypto::Principal> principals = pol.Principals();
  std::vector<crypto::Identity> endorsers;
  for (const crypto::Principal& p : principals) {
    const crypto::CertificateAuthority* ca = msps.Find(p.msp_id);
    Check(ca != nullptr, "policy names an unknown MSP");
    endorsers.push_back(ca->Enroll("peer0." + p.msp_id, p.role));
  }
  const crypto::Identity client_id =
      msps.Find(principals.front().msp_id)
          ->Enroll("client0", crypto::Role::kClient);
  const proto::Bytes client_cert = client_id.Cert().Serialize();

  chaincode::Registry chaincodes;
  chaincodes.Install(std::make_shared<chaincode::KvWriteChaincode>());
  chaincodes.Install(std::make_shared<chaincode::SmallBankChaincode>());

  // Every peer of the topology validates and commits every block.
  std::vector<CommitPeer> peers(net.PeerCount());
  const auto genesis = std::make_shared<const proto::Block>(
      proto::Block::Make(0, nullptr, {}));
  for (CommitPeer& peer : peers) {
    for (std::size_t a = 0; a < options.seeded_accounts; ++a) {
      const std::string acct = "acct" + std::to_string(a);
      const proto::Bytes balance =
          proto::ToBytes(std::to_string(options.seeded_balance));
      peer.state.Put("token", acct, balance, {0, 0});
      peer.state.Put("smallbank",
                     chaincode::SmallBankChaincode::CheckingKey(acct), balance,
                     {0, 0});
      peer.state.Put("smallbank",
                     chaincode::SmallBankChaincode::SavingsKey(acct), balance,
                     {0, 0});
    }
    Check(peer.chain.Append(genesis, {}), "genesis append");
    peer.state.SetHeight(1);
    if (options.optimizations.msp_cache) {
      peer.msp_cache = std::make_unique<crypto::MspIdentityCache>(msps);
    }
  }

  ordering::BlockCutter cutter(options.channel.batch);
  const std::size_t group = options.channel.batch.max_message_count;
  const bool bulk_commit = options.optimizations.bulk_commit;
  const bool shortcircuit = options.optimizations.policy_shortcircuit;
  sim::Rng rng(options.seed);

  LayerTotals t;
  std::uint64_t seq = 0;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  while (Clock::now() < deadline || t.blocks < kMinBlocks) {
    // Inputs, outside every span: invocations from the workload's own
    // generator, round-robin over its clients, and random nonces.
    std::vector<InFlight> txs(group);
    for (InFlight& tx : txs) {
      tx.invocation = generator.NextInvocation(seq % clients);
      tx.nonce = proto::ToBytes(std::to_string(rng.Next()));
      ++seq;
    }

    // Client: build and serialize each proposal, then sign it.
    {
      Span span(t.proto_serialize_ns);
      for (InFlight& tx : txs) {
        proto::Proposal& p = tx.proposal.proposal;
        p.channel_id = channel;
        p.nonce = tx.nonce;
        p.creator_cert = client_cert;
        p.tx_id = proto::Proposal::ComputeTxId(p.nonce, p.creator_cert);
        p.invocation = tx.invocation;
        (void)p.Serialize();
      }
    }
    {
      Span span(t.crypto_sign_ns);
      for (InFlight& tx : txs) {
        tx.proposal.client_signature =
            client_id.Sign(tx.proposal.proposal.Serialize());
      }
    }
    t.signs += txs.size();
    {
      Span span(t.policy_evaluate_ns);
      for (std::size_t i = 0; i < txs.size(); ++i) {
        auto plan = policy::PlanEndorsers(pol, principals, seq + i);
        Check(plan.has_value(), "policy unsatisfiable");
        txs[i].endorsers = std::move(*plan);
      }
    }

    // Endorsers: check the client signature, run the chaincode against
    // committed state, serialize and sign the response.
    {
      Span span(t.crypto_verify_ns);
      for (InFlight& tx : txs) {
        const proto::Proposal& p = tx.proposal.proposal;
        for (std::size_t e = 0; e < tx.endorsers.size(); ++e) {
          const crypto::Certificate* cert =
              msps.CachedCertificate(p.creator_cert);
          Check(cert != nullptr &&
                    crypto::VerifyDigest(cert->subject_public_key,
                                         p.SerializedDigest(),
                                         tx.proposal.client_signature),
                "proposal signature");
        }
        t.verifies += tx.endorsers.size();
      }
    }
    {
      Span span(t.chaincode_invoke_ns);
      for (InFlight& tx : txs) {
        chaincode::Chaincode* cc = chaincodes.Find(tx.invocation.chaincode_id);
        Check(cc != nullptr, "unknown chaincode");
        tx.responses.resize(tx.endorsers.size());
        for (proto::ProposalResponse& resp : tx.responses) {
          chaincode::ChaincodeStub stub(peers.front().state,
                                        tx.invocation.chaincode_id,
                                        tx.invocation);
          chaincode::Response result = cc->Invoke(stub);
          Check(result.status == proto::EndorseStatus::kSuccess,
                "chaincode error");
          resp.payload.rwset = std::move(stub).TakeRwSet();
          resp.payload.chaincode_result = std::move(result.payload);
        }
      }
    }
    {
      Span span(t.proto_serialize_ns);
      for (InFlight& tx : txs) {
        tx.response_bytes.resize(tx.responses.size());
        for (std::size_t e = 0; e < tx.responses.size(); ++e) {
          proto::ProposalResponse& resp = tx.responses[e];
          resp.tx_id = tx.proposal.proposal.tx_id;
          resp.payload.proposal_hash = crypto::HashStr(resp.tx_id);
          resp.endorsement.endorser_cert =
              endorsers[tx.endorsers[e]].Cert().Serialize();
          tx.response_bytes[e] = resp.payload.Serialize();
        }
      }
    }
    {
      Span span(t.crypto_sign_ns);
      for (InFlight& tx : txs) {
        for (std::size_t e = 0; e < tx.responses.size(); ++e) {
          tx.responses[e].endorsement.signature =
              endorsers[tx.endorsers[e]].Sign(tx.response_bytes[e]);
        }
        t.signs += tx.responses.size();
      }
    }

    // Client: check each endorsement, assemble, sign and serialize the
    // envelope.
    {
      Span span(t.crypto_verify_ns);
      for (InFlight& tx : txs) {
        for (std::size_t e = 0; e < tx.responses.size(); ++e) {
          const proto::Endorsement& en = tx.responses[e].endorsement;
          const crypto::Certificate* cert =
              msps.CachedCertificate(en.endorser_cert);
          Check(cert != nullptr &&
                    crypto::Verify(cert->subject_public_key,
                                   tx.response_bytes[e], en.signature),
                "endorsement signature");
        }
        t.verifies += tx.responses.size();
      }
    }
    {
      Span span(t.proto_serialize_ns);
      for (InFlight& tx : txs) {
        proto::TransactionEnvelope& env = tx.envelope;
        env.channel_id = channel;
        env.tx_id = tx.proposal.proposal.tx_id;
        env.creator_cert = client_cert;
        env.rwset = tx.responses.front().payload.rwset;
        env.chaincode_result = tx.responses.front().payload.chaincode_result;
        env.chaincode_id = tx.invocation.chaincode_id;
        for (const proto::ProposalResponse& resp : tx.responses) {
          env.endorsements.push_back(resp.endorsement);
        }
        (void)env.SignedBody();
      }
    }
    {
      Span span(t.crypto_sign_ns);
      for (InFlight& tx : txs) {
        tx.envelope.client_signature =
            client_id.Sign(tx.envelope.SignedBody());
      }
    }
    t.signs += txs.size();
    {
      Span span(t.proto_serialize_ns);
      for (InFlight& tx : txs) tx.envelope_size = tx.envelope.WireSize();
    }

    // Ordering: the OSN's block cutter, then block assembly.
    std::vector<ordering::EnvelopePtr> envelopes;
    envelopes.reserve(txs.size());
    for (InFlight& tx : txs) {
      t.envelope_bytes += tx.envelope_size;
      envelopes.push_back(std::make_shared<const proto::TransactionEnvelope>(
          std::move(tx.envelope)));
    }
    std::vector<ordering::Batch> batches;
    {
      Span span(t.blockcutter_ns);
      for (std::size_t i = 0; i < envelopes.size(); ++i) {
        auto r = cutter.Ordered(envelopes[i], txs[i].envelope_size);
        for (ordering::Batch& b : r.batches) batches.push_back(std::move(b));
      }
    }
    t.txs += txs.size();

    for (const ordering::Batch& batch : batches) {
      proto::BlockPtr block;
      {
        Span span(t.proto_block_make_ns);
        std::vector<proto::TransactionEnvelope> body;
        body.reserve(batch.size());
        for (const ordering::EnvelopePtr& env : batch) body.push_back(*env);
        const crypto::Digest prev = peers.front().chain.TipHash();
        block = std::make_shared<const proto::Block>(proto::Block::Make(
            peers.front().chain.Height(), &prev, std::move(body)));
      }
      ++t.blocks;

      // Committers. Without the short-circuit knob the signature half of
      // VSCC runs once per envelope (the library memoizes it on the shared
      // block) and each peer evaluates the policy over the verified
      // signers. With it, each peer looks up the identities (through its
      // MSP cache when that knob is on), checks the client signature, finds
      // the shortest endorsement prefix that satisfies the policy and
      // verifies only that prefix, as the committer's VSCC plan does.
      const auto& txs_in = block->transactions;
      std::vector<const std::optional<std::vector<crypto::Principal>>*>
          signers;
      if (!shortcircuit) {
        Span span(t.crypto_verify_ns);
        for (const proto::TransactionEnvelope& tx : txs_in) {
          signers.push_back(&tx.VerifiedSigners(msps));
          t.verifies += 1 + tx.endorsements.size();
        }
      }
      for (CommitPeer& peer : peers) {
        std::vector<proto::ValidationCode> codes(txs_in.size());
        if (!shortcircuit) {
          Span span(t.policy_evaluate_ns);
          for (std::size_t j = 0; j < signers.size(); ++j) {
            codes[j] = (signers[j]->has_value() &&
                        policy::Satisfied(pol, **signers[j]))
                           ? proto::ValidationCode::kValid
                           : proto::ValidationCode::kEndorsementPolicyFailure;
          }
        } else {
          const auto lookup = [&](const proto::Bytes& cert) {
            return peer.msp_cache ? peer.msp_cache->Lookup(cert).cert
                                  : msps.CachedCertificate(cert);
          };
          std::vector<std::vector<crypto::Principal>> principals_of(
              txs_in.size());
          std::vector<std::vector<const crypto::Certificate*>> certs_of(
              txs_in.size());
          {
            Span span(t.crypto_verify_ns);
            for (std::size_t j = 0; j < txs_in.size(); ++j) {
              const proto::TransactionEnvelope& tx = txs_in[j];
              const crypto::Certificate* creator = lookup(tx.creator_cert);
              Check(creator != nullptr &&
                        crypto::VerifyDigest(creator->subject_public_key,
                                             tx.SignedBodyDigest(),
                                             tx.client_signature),
                    "client signature");
              for (const proto::Endorsement& en : tx.endorsements) {
                const crypto::Certificate* c = lookup(en.endorser_cert);
                Check(c != nullptr, "endorser certificate");
                certs_of[j].push_back(c);
                principals_of[j].push_back({c->msp_id, c->role});
              }
            }
            t.verifies += txs_in.size();
          }
          std::vector<std::size_t> prefix(txs_in.size());
          {
            Span span(t.policy_evaluate_ns);
            for (std::size_t j = 0; j < txs_in.size(); ++j) {
              const auto p = policy::SatisfiedPrefix(pol, principals_of[j]);
              Check(p.has_value(), "policy not satisfied");
              prefix[j] = *p;
            }
          }
          {
            Span span(t.crypto_verify_ns);
            for (std::size_t j = 0; j < txs_in.size(); ++j) {
              const proto::TransactionEnvelope& tx = txs_in[j];
              const crypto::Digest& endorsed = tx.EndorsedPayloadDigest();
              for (std::size_t e = 0; e < prefix[j]; ++e) {
                Check(crypto::VerifyDigest(
                          certs_of[j][e]->subject_public_key, endorsed,
                          tx.endorsements[e].signature),
                      "endorsement signature");
              }
              t.verifies += prefix[j];
            }
          }
        }
        for (proto::ValidationCode c : codes) {
          Check(c == proto::ValidationCode::kValid, "VSCC rejected a tx");
        }
        ledger::MvccResult mvcc;
        {
          Span span(t.mvcc_validate_ns);
          mvcc = ledger::MvccValidator::Validate(*block, peer.state, &codes);
        }
        {
          Span span(t.state_commit_ns);
          if (bulk_commit) {
            ledger::MvccValidator::CommitBulk(*block, mvcc.codes, peer.state);
          } else {
            ledger::MvccValidator::Commit(*block, mvcc.codes, peer.state);
          }
        }
        bool appended = false;
        {
          Span span(t.block_append_ns);
          appended = peer.chain.Append(block, std::move(mvcc.codes));
        }
        Check(appended, "block append");
      }
    }
  }
  return t;
}

}  // namespace perfbench
