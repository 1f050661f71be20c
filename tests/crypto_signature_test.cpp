#include "crypto/signature.h"

#include <gtest/gtest.h>

namespace fabricsim::crypto {
namespace {

proto::Bytes Msg(std::string_view s) { return proto::ToBytes(s); }

TEST(Signature, SignVerifyRoundTrip) {
  const KeyPair kp = KeyPair::Derive("alice");
  const auto msg = Msg("hello world");
  const Signature sig = kp.Sign(msg);
  EXPECT_TRUE(Verify(kp.PublicKey(), msg, sig));
}

TEST(Signature, WrongMessageFails) {
  const KeyPair kp = KeyPair::Derive("alice");
  const Signature sig = kp.Sign(Msg("hello"));
  EXPECT_FALSE(Verify(kp.PublicKey(), Msg("hellp"), sig));
  EXPECT_FALSE(Verify(kp.PublicKey(), Msg(""), sig));
}

TEST(Signature, WrongKeyFails) {
  const KeyPair alice = KeyPair::Derive("alice");
  const KeyPair bob = KeyPair::Derive("bob");
  const Signature sig = alice.Sign(Msg("hi"));
  EXPECT_FALSE(Verify(bob.PublicKey(), Msg("hi"), sig));
}

TEST(Signature, TamperedSignatureFails) {
  const KeyPair kp = KeyPair::Derive("alice");
  const auto msg = Msg("payload");
  Signature sig = kp.Sign(msg);
  for (std::size_t i = 0; i < sig.bytes.size(); i += 13) {
    Signature bad = sig;
    bad.bytes[i] ^= 0x01;
    EXPECT_FALSE(Verify(kp.PublicKey(), msg, bad)) << "byte " << i;
  }
}

TEST(Signature, DeterministicDerivationAndSigning) {
  const KeyPair a = KeyPair::Derive("seed-x");
  const KeyPair b = KeyPair::Derive("seed-x");
  EXPECT_EQ(a.PublicKey(), b.PublicKey());
  EXPECT_EQ(a.Sign(Msg("m")), b.Sign(Msg("m")));
}

TEST(Signature, DistinctSeedsDistinctKeys) {
  EXPECT_NE(KeyPair::Derive("s1").PublicKey(),
            KeyPair::Derive("s2").PublicKey());
}

TEST(Signature, DigestApiMatchesByteApi) {
  const KeyPair kp = KeyPair::Derive("carol");
  const auto msg = Msg("digest equivalence");
  EXPECT_EQ(kp.Sign(msg), kp.SignDigest(Hash(msg)));
  EXPECT_TRUE(VerifyDigest(kp.PublicKey(), Hash(msg), kp.Sign(msg)));
}

TEST(Signature, ForgedDigestSignatureIsRejected) {
  const KeyPair kp = KeyPair::Derive("honest-signer");
  const Digest digest = Hash(Msg("transfer 10 from a to b"));
  const Signature honest = kp.SignDigest(digest);
  ASSERT_TRUE(VerifyDigest(kp.PublicKey(), digest, honest));
  for (std::size_t i = 0; i < 8; ++i) {
    Signature forged = honest;
    forged.bytes[i * 8] ^= 0x01;
    EXPECT_FALSE(VerifyDigest(kp.PublicKey(), digest, forged)) << i;
  }
}

TEST(Signature, VerdictBindsKeyDigestAndSignature) {
  // Varying any one of (public key, message digest, signature) away from
  // an honest triple must fail.
  const KeyPair kp = KeyPair::Derive("honest-signer");
  const KeyPair other = KeyPair::Derive("someone-else");
  const Digest digest = Hash(Msg("payload-a"));
  const Digest other_digest = Hash(Msg("payload-b"));
  const Signature honest = kp.SignDigest(digest);
  Signature forged = honest;
  forged.bytes[0] ^= 0xFF;

  ASSERT_TRUE(VerifyDigest(kp.PublicKey(), digest, honest));
  EXPECT_FALSE(VerifyDigest(kp.PublicKey(), digest, forged));
  EXPECT_FALSE(VerifyDigest(kp.PublicKey(), other_digest, honest));
  EXPECT_FALSE(VerifyDigest(other.PublicKey(), digest, honest));
}

TEST(Signature, BoundVerdictsMatchTheReference) {
  // VerifyDigest, and VerifyDigestBound with the key's binder, agree with
  // the reference verdict (the signer's own signature over the digest)
  // for honest and forged signatures alike.
  const KeyPair kp = KeyPair::Derive("honest-signer");
  const Digest binder = DeriveBinder(kp.PublicKey());
  for (const char* m : {"payload", "", "another payload"}) {
    const Digest digest = Hash(Msg(m));
    Signature forged = kp.SignDigest(digest);
    forged.bytes[63] ^= 0x80;
    for (const Signature& sig : {kp.SignDigest(digest), forged}) {
      const bool reference = kp.SignDigest(digest) == sig;
      EXPECT_EQ(VerifyDigest(kp.PublicKey(), digest, sig), reference) << m;
      EXPECT_EQ(VerifyDigestBound(binder, digest, sig), reference) << m;
    }
  }
}

TEST(Signature, SerializeRoundTrip) {
  const KeyPair kp = KeyPair::Derive("dave");
  const Signature sig = kp.Sign(Msg("x"));
  const proto::Bytes wire = sig.ToBytes();
  ASSERT_EQ(wire.size(), 64u);
  EXPECT_EQ(Signature::FromBytes(wire), sig);
}

TEST(Signature, FromBytesTruncatedIsSafeButInvalid) {
  const KeyPair kp = KeyPair::Derive("erin");
  const auto msg = Msg("y");
  const Signature sig = kp.Sign(msg);
  proto::Bytes wire = sig.ToBytes();
  wire.resize(10);
  const Signature truncated = Signature::FromBytes(wire);
  EXPECT_FALSE(Verify(kp.PublicKey(), msg, truncated));
}

TEST(Signature, CostsArePositiveAndVerifyIsHeavier) {
  EXPECT_GT(SignCost(), 0);
  EXPECT_GT(VerifyCost(), SignCost());
}

}  // namespace
}  // namespace fabricsim::crypto
