// Transaction envelopes (the order/validate phases' wire type) and
// validation codes.
//
// After collecting enough endorsements the client assembles an envelope:
// the proposal payload, the agreed rwset, all endorsements, and the client
// signature. The envelope is what the ordering service sequences into blocks
// and what committing peers validate.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "crypto/ca.h"
#include "crypto/identity.h"
#include "proto/proposal.h"
#include "proto/rwset.h"

namespace fabricsim::proto {

/// Mirrors Fabric's TxValidationCode values used in block metadata.
enum class ValidationCode : std::uint8_t {
  kValid = 0,
  kMvccReadConflict = 11,
  kEndorsementPolicyFailure = 10,
  kBadSignature = 4,
  kDuplicateTxId = 20,
  kBadRwSet = 22,
  kInvalidOtherReason = 255,
};

std::string ValidationCodeName(ValidationCode c);

/// The transaction envelope submitted to ordering.
struct TransactionEnvelope {
  std::string channel_id;
  std::string tx_id;
  Bytes creator_cert;  // client certificate
  TxReadWriteSet rwset;
  Bytes chaincode_result;
  std::string chaincode_id;
  std::vector<Endorsement> endorsements;
  crypto::Signature client_signature{};
  sim::SimTime client_timestamp = 0;

  /// Canonical bytes the client signs (everything but the signature).
  /// Cached after first use; mutating a *copy* re-serializes (see
  /// proto::CachedBytes).
  [[nodiscard]] const Bytes& SignedBody() const;

  [[nodiscard]] const Bytes& Serialize() const;
  static std::optional<TransactionEnvelope> Deserialize(BytesView data);
  [[nodiscard]] std::size_t WireSize() const { return Serialize().size(); }

  /// Bytes each endorser signed for this envelope's rwset/result; used by
  /// VSCC to re-verify endorsement signatures. Cached like SignedBody.
  [[nodiscard]] const Bytes& EndorsedPayloadBytes() const;

  /// SHA-256 of SignedBody(), memoized — every peer re-verifies the client
  /// signature, and signatures are digest-based (as in ECDSA).
  [[nodiscard]] const crypto::Digest& SignedBodyDigest() const;

  /// SHA-256 of EndorsedPayloadBytes(), memoized for VSCC.
  [[nodiscard]] const crypto::Digest& EndorsedPayloadDigest() const;

  /// Whether client_signature verifies over SignedBodyDigest() under
  /// `creator`, the certificate deserialized from creator_cert. Memoized
  /// (crypto::SignatureVerdict): every peer checks the same shared
  /// envelope, and copies and InvalidateCaches() reset the verdict.
  [[nodiscard]] bool ClientSignatureValid(
      const crypto::Certificate& creator) const {
    return client_verdict_.Check(
        creator.subject_binder, [this] { return SignedBodyDigest(); },
        client_signature);
  }

  /// Whether endorsements[i].signature verifies over
  /// EndorsedPayloadDigest() under `endorser`, the certificate deserialized
  /// from endorsements[i].endorser_cert. Memoized like
  /// ClientSignatureValid.
  [[nodiscard]] bool EndorsementValid(
      std::size_t i, const crypto::Certificate& endorser) const {
    const Endorsement& e = endorsements[i];
    return e.verdict_.Check(
        endorser.subject_binder, [this] { return EndorsedPayloadDigest(); },
        e.signature);
  }

  /// Policy-independent half of VSCC, memoized on the shared envelope:
  /// resolves the creator and every endorser against `msps`, checks their
  /// signatures (ClientSignatureValid, EndorsementValid) and yields the
  /// verified endorser principals — or nullopt if any check fails. Every
  /// peer validates every envelope against the same trust registry, so the
  /// result is kept; it is recomputed if a different registry is passed,
  /// and copies/InvalidateCaches() reset it.
  [[nodiscard]] const std::optional<std::vector<crypto::Principal>>&
  VerifiedSigners(const crypto::MspRegistry& msps) const;

  /// Drops memoized serializations and signature verdicts after an
  /// in-place mutation (tests).
  void InvalidateCaches() const;

 private:
  crypto::SignatureVerdict client_verdict_;

  CachedBytes signed_body_cache_;
  CachedBytes serialized_cache_;
  CachedBytes endorsed_payload_cache_;
  CachedValue<crypto::Digest> signed_body_digest_;
  CachedValue<crypto::Digest> endorsed_payload_digest_;

  // Signer-verification memo with the same copy-resets semantics as
  // CachedValue (a mutated copy must re-verify honestly), keyed by the
  // registry it was computed against. Negative results (nullopt value with
  // the registry set) stay cached.
  struct SignerCache {
    SignerCache() = default;
    SignerCache(const SignerCache&) noexcept {}
    SignerCache& operator=(const SignerCache&) noexcept {
      Reset();
      return *this;
    }
    SignerCache(SignerCache&&) noexcept {}
    SignerCache& operator=(SignerCache&&) noexcept {
      Reset();
      return *this;
    }
    void Reset() const {
      registry = nullptr;
      value.reset();
    }
    mutable const crypto::MspRegistry* registry = nullptr;
    mutable std::optional<std::vector<crypto::Principal>> value;
  };
  SignerCache signers_;
};

}  // namespace fabricsim::proto
