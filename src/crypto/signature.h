// Deterministic signature scheme with calibrated costs.
//
// The paper's bottleneck analysis hinges on the *CPU cost* of ECDSA-P256
// signing and verification inside ESCC/VSCC, not on the elliptic-curve
// algebra itself. We substitute a deterministic keyed-hash scheme whose
// verification genuinely fails for a wrong key, message, or tampered
// signature, and expose nominal sign/verify CPU costs that the simulation
// charges wherever Fabric would perform the real operation.
//
// NOT cryptographically secure (a verifier could forge); security is out of
// scope for a performance reproduction and documented in DESIGN.md.
#pragma once

#include <cstdint>
#include <string>

#include "crypto/sha256.h"
#include "proto/bytes.h"
#include "sim/time.h"

namespace fabricsim::crypto {

/// A 64-byte signature (same size as an ECDSA-P256 r||s pair).
struct Signature {
  std::array<std::uint8_t, 64> bytes{};

  bool operator==(const Signature&) const = default;
  [[nodiscard]] proto::Bytes ToBytes() const {
    return proto::Bytes(bytes.begin(), bytes.end());
  }
  static Signature FromBytes(proto::BytesView b);
};

/// A deterministic key pair. The public key identifies the signer; the
/// private key never leaves the owner.
class KeyPair {
 public:
  /// Derives a key pair deterministically from a seed string (e.g. the
  /// enrollment id). Deterministic derivation keeps runs reproducible.
  static KeyPair Derive(std::string_view seed);

  [[nodiscard]] const Digest& PublicKey() const { return public_key_; }

  /// Signs `msg` (digest-then-sign, like ECDSA).
  [[nodiscard]] Signature Sign(proto::BytesView msg) const;

  /// Signs a precomputed message digest. `Sign(m) == SignDigest(Hash(m))`.
  [[nodiscard]] Signature SignDigest(const Digest& msg_digest) const;

 private:
  KeyPair() = default;
  Digest private_key_{};
  Digest public_key_{};
  // Keystream binder precomputed at derivation: signing pays two hashes
  // instead of three.
  Digest binder_{};
};

/// Verifies `sig` over `msg` under `public_key`.
bool Verify(const Digest& public_key, proto::BytesView msg,
            const Signature& sig);

/// Digest-level verification; derives the key's keystream binder on every
/// call. No cache: a signature that many sites check is checked once
/// through the SignatureVerdict on the object that carries it.
bool VerifyDigest(const Digest& public_key, const Digest& msg_digest,
                  const Signature& sig);

/// Verification with the key's binder precomputed (DeriveBinder), as
/// Certificate::subject_binder holds it: one hash per certificate instead
/// of one per verification. `VerifyDigest(pk, d, s) ==
/// VerifyDigestBound(DeriveBinder(pk), d, s)`.
bool VerifyDigestBound(const Digest& binder, const Digest& msg_digest,
                       const Signature& sig);

/// Derives the keystream binder bound to a public key (the per-key
/// component of signing and verification).
Digest DeriveBinder(const Digest& public_key);

/// The memoized verdict of one signature, kept on the immutable wire object
/// that carries it (an envelope's client signature or endorsement, a signed
/// proposal, a block's orderer signature). The object is shared read-only
/// by every site that checks it, so the first check verifies and the rest
/// read the verdict; each site still charges its full simulated cost.
///
/// The verdict is a function of the carrier's own bytes: the key comes from
/// the certificate the carrier holds, the digest and signature from its
/// other fields. Copying or assigning resets it, as proto::CachedValue does,
/// so a tampered copy verifies afresh; an in-place mutation must Reset() it
/// through the carrier's InvalidateCaches(). Single-threaded, like the
/// experiment that owns the carrier.
class SignatureVerdict {
 public:
  SignatureVerdict() = default;
  SignatureVerdict(const SignatureVerdict&) noexcept {}  // do not copy
  SignatureVerdict& operator=(const SignatureVerdict&) noexcept {
    Reset();
    return *this;
  }

  /// VerifyDigestBound(binder, msg_digest(), sig), computed on first use;
  /// the digest is only built then.
  template <typename DigestFn>
  bool Check(const Digest& binder, DigestFn&& msg_digest,
             const Signature& sig) const {
    if (state_ == kUnknown) {
      state_ = VerifyDigestBound(binder, msg_digest(), sig) ? kValid
                                                            : kInvalid;
    }
    return state_ == kValid;
  }

  void Reset() const { state_ = kUnknown; }

 private:
  static constexpr std::uint8_t kUnknown = 0;
  static constexpr std::uint8_t kValid = 1;
  static constexpr std::uint8_t kInvalid = 2;
  mutable std::uint8_t state_ = kUnknown;
};

/// Nominal CPU costs on the baseline machine (i7-2600), calibrated to
/// OpenSSL ECDSA-P256 figures of that era plus Fabric's Go-runtime and
/// envelope-unmarshalling overheads around each operation.
sim::SimDuration SignCost();
sim::SimDuration VerifyCost();

}  // namespace fabricsim::crypto
