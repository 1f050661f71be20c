#include "ledger/block_store.h"

namespace fabricsim::ledger {

void BlockStore::Append(proto::BlockPtr block,
                        std::vector<proto::ValidationCode> codes) {
  const std::uint64_t num = Height();
  for (std::size_t i = 0; i < block->transactions.size(); ++i) {
    const std::string_view id = block->transactions[i].tx_id;
    const TxLocation loc{num, static_cast<std::uint32_t>(i)};
    auto [it, inserted] = tx_index_.try_emplace(id, loc);
    if (!inserted) {
      // A repeated id moves its entry, key view included, to this block.
      tx_index_.erase(it);
      tx_index_.emplace(id, loc);
    }
  }
  total_txs_ += block->transactions.size();
  stored_bytes_ += block->WireSize();
  blocks_.push_back(std::move(block));
  codes_.push_back(std::move(codes));
  PruneFront();
}

void BlockStore::PruneFront() {
  if (keep_blocks_ == 0) return;
  while (blocks_.size() > keep_blocks_) {
    for (const auto& tx : blocks_.front()->transactions) {
      auto it = tx_index_.find(tx.tx_id);
      // An id repeated in a newer (retained) block keeps its entry.
      if (it != tx_index_.end() && it->second.block_num == first_block_num_) {
        tx_index_.erase(it);
      }
    }
    blocks_.pop_front();
    codes_.pop_front();
    ++first_block_num_;
  }
}

const std::vector<proto::ValidationCode>& BlockStore::CodesFor(
    std::uint64_t number) const {
  static const std::vector<proto::ValidationCode> kEmpty;
  if (number < first_block_num_ || number >= Height()) return kEmpty;
  return codes_[static_cast<std::size_t>(number - first_block_num_)];
}

proto::BlockPtr BlockStore::GetBlock(std::uint64_t number) const {
  if (number < first_block_num_ || number >= Height()) return nullptr;
  return blocks_[static_cast<std::size_t>(number - first_block_num_)];
}

proto::BlockPtr BlockStore::LastBlock() const {
  return blocks_.empty() ? nullptr : blocks_.back();
}

bool BlockStore::HasTransaction(std::string_view tx_id) const {
  return tx_index_.count(tx_id) != 0;
}

std::optional<TxLocation> BlockStore::FindTransaction(
    std::string_view tx_id) const {
  auto it = tx_index_.find(tx_id);
  if (it == tx_index_.end()) return std::nullopt;
  return it->second;
}

std::vector<KeyModification> BlockStore::HistoryFor(
    std::string_view ns, std::string_view key) const {
  std::vector<KeyModification> out;
  for (std::size_t b = 0; b < blocks_.size(); ++b) {
    const proto::Block& block = *blocks_[b];
    const std::vector<proto::ValidationCode>& codes = codes_[b];
    for (std::size_t i = 0; i < block.transactions.size(); ++i) {
      if (i < codes.size() && codes[i] != proto::ValidationCode::kValid) {
        continue;
      }
      const auto& tx = block.transactions[i];
      for (const auto& nsrw : tx.rwset.ns_rwsets) {
        if (nsrw.ns != ns) continue;
        for (const auto& w : nsrw.writes) {
          if (w.key != key) continue;
          out.push_back({block.header.number, static_cast<std::uint32_t>(i),
                         tx.tx_id, w.is_delete, w.value});
        }
      }
    }
  }
  return out;
}

}  // namespace fabricsim::ledger
