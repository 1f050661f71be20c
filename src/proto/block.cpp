#include "proto/block.h"

#include <stdexcept>

namespace fabricsim::proto {

Bytes BlockHeader::Serialize() const {
  Writer w;
  w.U64(number);
  w.Blob(BytesView(previous_hash.data(), previous_hash.size()));
  w.Blob(BytesView(data_hash.data(), data_hash.size()));
  return w.Take();
}

std::optional<BlockHeader> BlockHeader::Deserialize(BytesView data) {
  try {
    Reader r(data);
    BlockHeader out;
    out.number = r.U64();
    const Bytes prev = r.Blob();
    const Bytes dh = r.Blob();
    if (prev.size() != out.previous_hash.size() ||
        dh.size() != out.data_hash.size()) {
      return std::nullopt;
    }
    std::copy(prev.begin(), prev.end(), out.previous_hash.begin());
    std::copy(dh.begin(), dh.end(), out.data_hash.begin());
    return out;
  } catch (const std::out_of_range&) {
    return std::nullopt;
  }
}

crypto::Digest BlockHeader::Hash() const { return crypto::Hash(Serialize()); }

Bytes BlockMetadata::Serialize() const {
  Writer w;
  w.U32(static_cast<std::uint32_t>(validation_codes.size()));
  for (ValidationCode c : validation_codes) {
    w.U8(static_cast<std::uint8_t>(c));
  }
  w.Blob(orderer_cert);
  w.Blob(orderer_signature.ToBytes());
  return w.Take();
}

std::optional<BlockMetadata> BlockMetadata::Deserialize(BytesView data) {
  try {
    Reader r(data);
    BlockMetadata out;
    const std::uint32_t n = r.U32();
    out.validation_codes.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      out.validation_codes.push_back(static_cast<ValidationCode>(r.U8()));
    }
    out.orderer_cert = r.Blob();
    out.orderer_signature = crypto::Signature::FromBytes(r.Blob());
    return out;
  } catch (const std::out_of_range&) {
    return std::nullopt;
  }
}

crypto::Digest Block::ComputeDataHash(
    const std::vector<TransactionEnvelope>& txs) {
  std::vector<Bytes> leaves;
  leaves.reserve(txs.size());
  for (const auto& tx : txs) leaves.push_back(tx.Serialize());
  return crypto::MerkleTree(leaves).Root();
}

const crypto::Digest& Block::DataHash() const {
  return data_hash_cache_.Get([this] { return ComputeDataHash(transactions); });
}

bool Block::OrdererSignatureValid(const crypto::Certificate& orderer) const {
  return orderer_verdict_.Check(
      orderer.subject_binder, [this] { return crypto::Hash(header.Serialize()); },
      metadata.orderer_signature);
}

void Block::InvalidateCaches() const {
  orderer_verdict_.Reset();
  serialized_cache_.Invalidate();
  data_hash_cache_.Invalidate();
  for (const auto& tx : transactions) tx.InvalidateCaches();
}

Block Block::Make(std::uint64_t number, const crypto::Digest* prev_hash,
                  std::vector<TransactionEnvelope> txs) {
  Block b;
  b.header.number = number;
  if (prev_hash != nullptr) b.header.previous_hash = *prev_hash;
  b.header.data_hash = ComputeDataHash(txs);
  b.transactions = std::move(txs);
  return b;
}

const Bytes& Block::Serialize() const {
  return serialized_cache_.Get([this] {
    Writer w;
    w.Blob(header.Serialize());
    w.U32(static_cast<std::uint32_t>(transactions.size()));
    for (const auto& tx : transactions) w.Blob(tx.Serialize());
    w.Blob(metadata.Serialize());
    return w.Take();
  });
}

std::optional<Block> Block::Deserialize(BytesView data) {
  try {
    Reader r(data);
    Block out;
    auto hdr = BlockHeader::Deserialize(r.Blob());
    if (!hdr) return std::nullopt;
    out.header = *hdr;
    const std::uint32_t n = r.U32();
    out.transactions.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      auto tx = TransactionEnvelope::Deserialize(r.Blob());
      if (!tx) return std::nullopt;
      out.transactions.push_back(std::move(*tx));
    }
    auto md = BlockMetadata::Deserialize(r.Blob());
    if (!md) return std::nullopt;
    out.metadata = std::move(*md);
    return out;
  } catch (const std::out_of_range&) {
    return std::nullopt;
  }
}

std::size_t Block::WireSize() const { return Serialize().size(); }

}  // namespace fabricsim::proto
