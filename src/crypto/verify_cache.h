// Keyed signature-verification cache, mirroring Fabric's MSP verify cache.
//
// Every envelope is re-verified at each endorser, OSN, and peer it touches:
// the same (public key, message digest, signature) triple re-checked with
// identical outcome. Real Fabric papers (Thakkar et al., arXiv:1805.11390)
// showed an MSP cache removes that redundancy; here it removes the *host*
// hashing cost while the simulated CPU cost is still charged at every
// verification site — simulated results are byte-identical with the cache
// on or off, which the determinism test proves.
//
// Thread-safety contract: the cache is process-global and shared by every
// concurrently running experiment (the sweep runner fans independent
// points out to host threads — see runner/sweep_runner.h). It is sharded
// into kStripes independently locked stripes keyed by the entry hash, so
// parallel experiments rarely contend on the same mutex. Verdicts are pure
// functions of the key, so cross-experiment sharing can never change a
// simulated outcome — only hit/miss counts (host-side telemetry) vary with
// thread interleaving. Each stripe is bounded: when full it is cleared
// wholesale, a deterministic policy that keeps the hot,
// temporally-clustered re-verifications (N endorsers on one proposal,
// every peer on one block) while capping memory; dropped entries are
// counted as evictions.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "crypto/sha256.h"

namespace fabricsim::crypto {

struct Signature;

class VerifyCache {
 public:
  /// The process-wide instance used by crypto::VerifyDigest.
  static VerifyCache& Instance();

  /// Disabling also clears (the --no-crypto-cache escape hatch).
  void SetEnabled(bool on);
  [[nodiscard]] bool Enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  void Clear();

  /// Cached verdict for (public key, message digest, signature), if any.
  [[nodiscard]] std::optional<bool> Lookup(const Digest& public_key,
                                           const Digest& msg_digest,
                                           const Signature& sig) const;
  void Insert(const Digest& public_key, const Digest& msg_digest,
              const Signature& sig, bool verdict);

  /// Keystream binder for a public key (the per-key third of every
  /// verification); derived once per key instead of per operation. Returned
  /// by value: a reference into the map could be invalidated by another
  /// thread's wholesale stripe clear.
  [[nodiscard]] Digest BinderFor(const Digest& public_key);

  /// Counters for the bench JSON (host-metric visibility, not simulated;
  /// under parallel sweeps the split between hits and misses depends on
  /// thread interleaving).
  [[nodiscard]] std::uint64_t Hits() const {
    return hits_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t Misses() const {
    return misses_.load(std::memory_order_relaxed);
  }
  /// Verdict entries dropped by stripe-full wholesale clears (and explicit
  /// Clear() calls are not counted — only capacity evictions).
  [[nodiscard]] std::uint64_t Evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t Size() const;
  void ResetStats() {
    hits_.store(0, std::memory_order_relaxed);
    misses_.store(0, std::memory_order_relaxed);
    evictions_.store(0, std::memory_order_relaxed);
  }

  /// Independently locked stripes; power of two so the hash maps cheaply.
  static constexpr std::size_t kStripes = 16;
  /// Total entry cap before wholesale clears (~10 MB of verdicts), split
  /// evenly across stripes. Hits cluster on in-flight transactions, so the
  /// cap only needs to cover that working set: halving it from 1 << 17
  /// turned 0.04% of lookups into misses on a five-endorsement workload
  /// (perfbench solo-and5-opt), and a cache that fills within tens of
  /// thousands of transactions keeps long runs' peak RSS flat
  /// (bench/soak.cpp).
  static constexpr std::size_t kMaxEntries = 1u << 16;

 private:
  // Full 128-byte key: no truncation, so a hash collision can never flip a
  // verdict (only slow a lookup).
  struct Key {
    std::array<std::uint8_t, 128> bytes;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const;
  };
  struct DigestHash {
    std::size_t operator()(const Digest& d) const;
  };
  static Key MakeKey(const Digest& public_key, const Digest& msg_digest,
                     const Signature& sig);

  struct Stripe {
    mutable std::mutex mu;
    std::unordered_map<Key, bool, KeyHash> verdicts;
    std::unordered_map<Digest, Digest, DigestHash> binders;
  };
  [[nodiscard]] Stripe& StripeFor(std::size_t hash) const {
    return stripes_[hash & (kStripes - 1)];
  }

  std::atomic<bool> enabled_{true};
  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
  mutable std::array<Stripe, kStripes> stripes_;
};

}  // namespace fabricsim::crypto
