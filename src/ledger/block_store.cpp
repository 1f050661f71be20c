#include "ledger/block_store.h"

#include <functional>

namespace fabricsim::ledger {

namespace {

std::size_t HashId(std::string_view tx_id) {
  return std::hash<std::string_view>{}(tx_id);
}

}  // namespace

void BlockStore::Append(proto::BlockPtr block,
                        std::vector<proto::ValidationCode> codes) {
  const std::uint64_t num = Height();
  total_txs_ += block->transactions.size();
  stored_bytes_ += block->WireSize();
  blocks_.push_back(std::move(block));
  codes_.push_back(std::move(codes));
  // Indexed once resident: a probe reads the id back from the block.
  const auto& txs = blocks_.back()->transactions;
  for (std::size_t i = 0; i < txs.size(); ++i) {
    IndexTransaction(txs[i].tx_id, {num, static_cast<std::uint32_t>(i)});
  }
  PruneFront();
}

std::size_t BlockStore::SlotOf(std::string_view tx_id,
                               std::size_t hash) const {
  const std::size_t mask = tx_slots_.size() - 1;
  for (std::size_t s = hash & mask;; s = (s + 1) & mask) {
    const Slot& slot = tx_slots_[s];
    if (slot.block_num == Slot::kEmpty) return s;
    if (slot.hash == hash &&
        blocks_[static_cast<std::size_t>(slot.block_num - first_block_num_)]
                ->transactions[slot.tx_index]
                .tx_id == tx_id) {
      return s;
    }
  }
}

void BlockStore::GrowIndex() {
  std::vector<Slot> old = std::move(tx_slots_);
  tx_slots_.assign(old.empty() ? 64 : old.size() * 2, Slot{});
  const std::size_t mask = tx_slots_.size() - 1;
  for (const Slot& slot : old) {
    if (slot.block_num == Slot::kEmpty) continue;
    std::size_t s = slot.hash & mask;
    while (tx_slots_[s].block_num != Slot::kEmpty) s = (s + 1) & mask;
    tx_slots_[s] = slot;
  }
}

void BlockStore::IndexTransaction(std::string_view tx_id, TxLocation loc) {
  if (2 * (tx_indexed_ + 1) > tx_slots_.size()) GrowIndex();
  const std::size_t hash = HashId(tx_id);
  Slot& slot = tx_slots_[SlotOf(tx_id, hash)];
  // A repeated id moves its slot to this (newer) location.
  if (slot.block_num == Slot::kEmpty) ++tx_indexed_;
  slot = Slot{hash, loc.block_num, loc.tx_index};
}

void BlockStore::EraseSlot(std::size_t hole) {
  // Backward-shift deletion: pull each later chain member whose home lies
  // at or before the hole into it.
  const std::size_t mask = tx_slots_.size() - 1;
  for (std::size_t s = (hole + 1) & mask;
       tx_slots_[s].block_num != Slot::kEmpty; s = (s + 1) & mask) {
    const std::size_t home = tx_slots_[s].hash & mask;
    if (((s - home) & mask) >= ((s - hole) & mask)) {
      tx_slots_[hole] = tx_slots_[s];
      hole = s;
    }
  }
  tx_slots_[hole] = Slot{};
  --tx_indexed_;
}

void BlockStore::PruneFront() {
  if (keep_blocks_ == 0) return;
  while (blocks_.size() > keep_blocks_) {
    for (const auto& tx : blocks_.front()->transactions) {
      const std::size_t s = SlotOf(tx.tx_id, HashId(tx.tx_id));
      // An id repeated in a newer (retained) block keeps its slot.
      if (tx_slots_[s].block_num == first_block_num_) EraseSlot(s);
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
  return FindTransaction(tx_id).has_value();
}

std::optional<TxLocation> BlockStore::FindTransaction(
    std::string_view tx_id) const {
  if (tx_indexed_ == 0) return std::nullopt;
  const Slot& slot = tx_slots_[SlotOf(tx_id, HashId(tx_id))];
  if (slot.block_num == Slot::kEmpty) return std::nullopt;
  return TxLocation{slot.block_num, slot.tx_index};
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
