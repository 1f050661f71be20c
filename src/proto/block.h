// Blocks: header, data (transaction envelopes), metadata (validation flags,
// orderer signature). Hash-chained via the header's previous-hash field,
// exactly as in Fabric.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "crypto/merkle.h"
#include "crypto/sha256.h"
#include "crypto/signature.h"
#include "proto/transaction.h"

namespace fabricsim::proto {

struct BlockHeader {
  std::uint64_t number = 0;
  crypto::Digest previous_hash{};
  crypto::Digest data_hash{};

  bool operator==(const BlockHeader&) const = default;
  [[nodiscard]] Bytes Serialize() const;
  static std::optional<BlockHeader> Deserialize(BytesView data);

  /// The block hash = SHA-256 of the serialized header (Fabric semantics).
  [[nodiscard]] crypto::Digest Hash() const;
};

/// Post-commit metadata: one validation code per transaction, plus the
/// orderer's signature over the header.
struct BlockMetadata {
  std::vector<ValidationCode> validation_codes;
  Bytes orderer_cert;
  crypto::Signature orderer_signature{};

  [[nodiscard]] Bytes Serialize() const;
  static std::optional<BlockMetadata> Deserialize(BytesView data);
};

struct Block {
  BlockHeader header;
  std::vector<TransactionEnvelope> transactions;
  BlockMetadata metadata;

  /// Computes the Merkle root over the serialized transactions.
  [[nodiscard]] static crypto::Digest ComputeDataHash(
      const std::vector<TransactionEnvelope>& txs);

  /// ComputeDataHash over this block's transactions, memoized on the
  /// (shared, immutable) block object: every peer re-validates the same
  /// BlockPtr at append, so the Merkle tree is hashed once per block
  /// instead of once per peer. A deserialized block starts cold, so a
  /// tampered wire stream is still caught on its first validation.
  [[nodiscard]] const crypto::Digest& DataHash() const;

  /// Builds a block from `txs` chained onto `prev` (null for genesis).
  static Block Make(std::uint64_t number, const crypto::Digest* prev_hash,
                    std::vector<TransactionEnvelope> txs);

  /// Cached after first use; copies reset the cache (proto::CachedBytes).
  [[nodiscard]] const Bytes& Serialize() const;
  static std::optional<Block> Deserialize(BytesView data);
  [[nodiscard]] std::size_t WireSize() const;

  [[nodiscard]] std::size_t TxCount() const { return transactions.size(); }

  /// Whether metadata.orderer_signature verifies over the serialized
  /// header under `orderer`, the certificate deserialized from
  /// metadata.orderer_cert. Memoized (crypto::SignatureVerdict): every
  /// peer checks the same shared block, and copies verify afresh.
  [[nodiscard]] bool OrdererSignatureValid(
      const crypto::Certificate& orderer) const;

  /// Drops the serialize/data-hash memos and the orderer verdict (and each
  /// envelope's memos). In-place mutators must call this — the same
  /// contract as TransactionEnvelope::InvalidateCaches().
  void InvalidateCaches() const;

 private:
  crypto::SignatureVerdict orderer_verdict_;
  CachedBytes serialized_cache_;
  CachedValue<crypto::Digest> data_hash_cache_;
};

using BlockPtr = std::shared_ptr<const Block>;

}  // namespace fabricsim::proto
