// Signature verdicts memoized on the wire objects that carry them
// (crypto::SignatureVerdict): an envelope's client signature and each
// endorsement, a signed proposal's client signature, a block's orderer
// signature.
//
// The property under test: a verdict belongs to one object's bytes. A copy
// starts cold, so a copy tampered after the original was checked verifies
// afresh and fails, while the original keeps its honest verdict; an
// in-place tamper followed by InvalidateCaches() fails too. A memo that
// survived a copy would accept the tampered copy here.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "crypto/ca.h"
#include "crypto/signature.h"
#include "proto/block.h"
#include "proto/proposal.h"
#include "proto/transaction.h"

namespace fabricsim::proto {
namespace {

struct Fixture {
  Fixture() {
    for (const char* org : {"Org1MSP", "Org2MSP", "Org3MSP", "ClientMSP",
                            "OrdererMSP"}) {
      msps.AddOrganization(org);
    }
    client = std::make_unique<crypto::Identity>(
        msps.Find("ClientMSP")->Enroll("app0", crypto::Role::kClient));
    for (const char* org : {"Org1MSP", "Org2MSP", "Org3MSP"}) {
      peers.push_back(std::make_unique<crypto::Identity>(
          msps.Find(org)->Enroll("peer0", crypto::Role::kPeer)));
    }
    orderer = std::make_unique<crypto::Identity>(
        msps.Find("OrdererMSP")->Enroll("orderer0", crypto::Role::kOrderer));
  }

  const crypto::Certificate& Cert(const Bytes& cert_bytes) const {
    const crypto::Certificate* cert = msps.CachedCertificate(cert_bytes);
    EXPECT_NE(cert, nullptr);
    return *cert;
  }

  TransactionEnvelope MakeTx(const std::string& tx_id) const {
    TransactionEnvelope tx;
    tx.channel_id = "ch";
    tx.tx_id = tx_id;
    tx.creator_cert = client->Cert().Serialize();
    tx.chaincode_id = "cc";
    tx.chaincode_result = ToBytes("ok");
    for (const auto& peer : peers) {
      Endorsement e;
      e.endorser_cert = peer->Cert().Serialize();
      e.signature = peer->Sign(tx.EndorsedPayloadBytes());
      tx.endorsements.push_back(std::move(e));
    }
    tx.client_signature = client->Sign(tx.SignedBody());
    return tx;
  }

  SignedProposal MakeProposal() const {
    SignedProposal sp;
    sp.proposal.channel_id = "ch";
    sp.proposal.nonce = ToBytes("nonce");
    sp.proposal.creator_cert = client->Cert().Serialize();
    sp.proposal.tx_id =
        Proposal::ComputeTxId(sp.proposal.nonce, sp.proposal.creator_cert);
    sp.proposal.invocation.chaincode_id = "cc";
    sp.client_signature = client->Sign(sp.proposal.Serialize());
    return sp;
  }

  Block MakeBlock() const {
    Block b = Block::Make(1, nullptr, {MakeTx("t1"), MakeTx("t2")});
    b.metadata.orderer_cert = orderer->Cert().Serialize();
    b.metadata.orderer_signature = orderer->Sign(b.header.Serialize());
    return b;
  }

  bool AllEndorsementsValid(const TransactionEnvelope& tx) const {
    for (std::size_t i = 0; i < tx.endorsements.size(); ++i) {
      if (!tx.EndorsementValid(i, Cert(tx.endorsements[i].endorser_cert))) {
        return false;
      }
    }
    return true;
  }

  crypto::MspRegistry msps;
  std::unique_ptr<crypto::Identity> client, orderer;
  std::vector<std::unique_ptr<crypto::Identity>> peers;
};

TEST(SignatureVerdict, ChecksOnceAndCopiesStartCold) {
  const crypto::KeyPair kp = crypto::KeyPair::Derive("signer");
  const crypto::Digest digest = crypto::Hash(ToBytes("payload"));
  const crypto::Signature sig = kp.SignDigest(digest);
  const crypto::Digest binder = crypto::DeriveBinder(kp.PublicKey());
  int digests_built = 0;
  const auto build = [&] {
    ++digests_built;
    return digest;
  };

  crypto::SignatureVerdict verdict;
  EXPECT_TRUE(verdict.Check(binder, build, sig));
  EXPECT_TRUE(verdict.Check(binder, build, sig));
  EXPECT_EQ(digests_built, 1);  // the second check read the verdict

  const crypto::SignatureVerdict copy = verdict;
  EXPECT_TRUE(copy.Check(binder, build, sig));
  EXPECT_EQ(digests_built, 2);  // the copy verified afresh

  crypto::SignatureVerdict assigned;
  EXPECT_TRUE(assigned.Check(binder, build, sig));
  assigned = verdict;
  crypto::Signature forged = sig;
  forged.bytes[9] ^= 0x01;
  EXPECT_FALSE(assigned.Check(binder, build, forged));  // assignment resets

  verdict.Reset();
  EXPECT_FALSE(verdict.Check(binder, build, forged));
  EXPECT_EQ(digests_built, 5);
}

TEST(SignatureVerdict, EnvelopeClientSignatureCopyVerifiesAfresh) {
  const Fixture f;
  const TransactionEnvelope tx = f.MakeTx("t1");
  const crypto::Certificate& creator = f.Cert(tx.creator_cert);
  ASSERT_TRUE(tx.ClientSignatureValid(creator));  // warm the verdict

  TransactionEnvelope copy = tx;
  copy.client_signature.bytes[0] ^= 0x01;
  EXPECT_FALSE(copy.ClientSignatureValid(creator));
  EXPECT_TRUE(tx.ClientSignatureValid(creator));
}

TEST(SignatureVerdict, EachEndorsementCopyVerifiesAfresh) {
  const Fixture f;
  const TransactionEnvelope tx = f.MakeTx("t1");
  ASSERT_TRUE(f.AllEndorsementsValid(tx));  // warm every verdict
  for (std::size_t i = 0; i < tx.endorsements.size(); ++i) {
    TransactionEnvelope copy = tx;
    copy.endorsements[i].signature.bytes[7] ^= 0x01;
    for (std::size_t j = 0; j < copy.endorsements.size(); ++j) {
      const crypto::Certificate& cert =
          f.Cert(copy.endorsements[j].endorser_cert);
      EXPECT_EQ(copy.EndorsementValid(j, cert), j != i) << i << "/" << j;
    }
    EXPECT_TRUE(f.AllEndorsementsValid(tx)) << i;
  }
}

TEST(SignatureVerdict, CopiedEndorsementVerifiesAfresh) {
  // An endorsement copied out of a checked envelope carries no verdict
  // into the envelope it joins, and equality ignores the memo.
  const Fixture f;
  const TransactionEnvelope tx = f.MakeTx("t1");
  ASSERT_TRUE(f.AllEndorsementsValid(tx));
  TransactionEnvelope other = f.MakeTx("t2");
  other.endorsements[0] = tx.endorsements[0];  // signed over t1's payload
  other.InvalidateCaches();
  EXPECT_EQ(other.endorsements[0], tx.endorsements[0]);
  EXPECT_FALSE(
      other.EndorsementValid(0, f.Cert(other.endorsements[0].endorser_cert)));
}

TEST(SignatureVerdict, VerifiedSignersOfATamperedCopyFail) {
  const Fixture f;
  const TransactionEnvelope tx = f.MakeTx("t1");
  ASSERT_TRUE(tx.VerifiedSigners(f.msps).has_value());
  TransactionEnvelope copy = tx;
  copy.endorsements.back().signature.bytes[0] ^= 0x01;
  EXPECT_FALSE(copy.VerifiedSigners(f.msps).has_value());
  EXPECT_TRUE(tx.VerifiedSigners(f.msps).has_value());
}

TEST(SignatureVerdict, SignedProposalCopyVerifiesAfresh) {
  const Fixture f;
  const SignedProposal sp = f.MakeProposal();
  const crypto::Certificate& creator = f.Cert(sp.proposal.creator_cert);
  ASSERT_TRUE(sp.ClientSignatureValid(creator));

  SignedProposal copy = sp;
  copy.client_signature.bytes[3] ^= 0x01;
  EXPECT_FALSE(copy.ClientSignatureValid(creator));
  EXPECT_TRUE(sp.ClientSignatureValid(creator));
}

TEST(SignatureVerdict, BlockOrdererSignatureCopyVerifiesAfresh) {
  const Fixture f;
  const Block block = f.MakeBlock();
  const crypto::Certificate& orderer = f.Cert(block.metadata.orderer_cert);
  ASSERT_TRUE(block.OrdererSignatureValid(orderer));
  for (const auto& tx : block.transactions) {
    ASSERT_TRUE(tx.ClientSignatureValid(f.Cert(tx.creator_cert)));
  }

  Block copy = block;
  copy.metadata.orderer_signature.bytes[0] ^= 0x01;
  copy.transactions[1].client_signature.bytes[0] ^= 0x01;
  EXPECT_FALSE(copy.OrdererSignatureValid(orderer));
  EXPECT_FALSE(copy.transactions[1].ClientSignatureValid(
      f.Cert(copy.transactions[1].creator_cert)));
  EXPECT_TRUE(block.OrdererSignatureValid(orderer));
  EXPECT_TRUE(block.transactions[1].ClientSignatureValid(
      f.Cert(block.transactions[1].creator_cert)));
}

TEST(SignatureVerdict, InPlaceTamperThenInvalidateCachesIsRejected) {
  const Fixture f;
  TransactionEnvelope tx = f.MakeTx("t1");
  const crypto::Certificate& creator = f.Cert(tx.creator_cert);
  ASSERT_TRUE(tx.ClientSignatureValid(creator));
  ASSERT_TRUE(f.AllEndorsementsValid(tx));
  ASSERT_TRUE(tx.VerifiedSigners(f.msps).has_value());

  tx.client_signature.bytes[1] ^= 0x01;
  tx.endorsements[2].signature.bytes[1] ^= 0x01;
  tx.InvalidateCaches();
  EXPECT_FALSE(tx.ClientSignatureValid(creator));
  EXPECT_FALSE(
      tx.EndorsementValid(2, f.Cert(tx.endorsements[2].endorser_cert)));
  EXPECT_FALSE(tx.VerifiedSigners(f.msps).has_value());

  // The endorsed payload is covered too: editing it in place voids every
  // endorsement's verdict.
  TransactionEnvelope payload = f.MakeTx("t2");
  ASSERT_TRUE(f.AllEndorsementsValid(payload));
  payload.chaincode_result.push_back(0x5A);
  payload.InvalidateCaches();
  EXPECT_FALSE(
      payload.EndorsementValid(0, f.Cert(payload.endorsements[0].endorser_cert)));

  Block block = f.MakeBlock();
  const crypto::Certificate& orderer = f.Cert(block.metadata.orderer_cert);
  ASSERT_TRUE(block.OrdererSignatureValid(orderer));
  ASSERT_TRUE(f.AllEndorsementsValid(block.transactions[0]));
  block.metadata.orderer_signature.bytes[2] ^= 0x01;
  block.transactions[0].endorsements[0].signature.bytes[2] ^= 0x01;
  block.InvalidateCaches();
  EXPECT_FALSE(block.OrdererSignatureValid(orderer));
  EXPECT_FALSE(block.transactions[0].EndorsementValid(
      0, f.Cert(block.transactions[0].endorsements[0].endorser_cert)));
}

}  // namespace
}  // namespace fabricsim::proto
