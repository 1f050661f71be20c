// Append-only block storage with a transaction-id index.
//
// Mirrors Fabric's file-based block store: blocks are retrievable by number,
// transactions by id, and the committer consults the tx-id index for
// duplicate-transaction detection. Key history is read back from the stored
// blocks and their validation codes, as Fabric's history database does (its
// entries hold only block/tx coordinates).
//
// The tx-id index is a flat open-addressing (linear-probing) table of
// {hash, block number, tx index} slots. It stores no id string: a probe
// compares the id held inside the resident block the slot points at, so
// indexing a transaction allocates nothing of its own. A repeated id moves
// its slot to the newest block; pruning removes a block's slots by
// backward-shift deletion, so the table never accumulates tombstones.
//
// Retention: by default every block is kept (the real block store is disk-
// backed and effectively unbounded, but here blocks live in RSS, which makes
// million-transaction soak runs infeasible). SetRetention(n) keeps only the
// newest n blocks in memory — older blocks and their tx-index entries are
// pruned, so duplicate detection's horizon and key history shrink to the
// retained window. That is safe whenever client resubmission of old tx ids
// is bounded (every non-chaos run), and the soak bench relies on it for flat
// memory.
#pragma once

#include <deque>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "proto/block.h"

namespace fabricsim::ledger {

/// Location of a transaction inside the chain.
struct TxLocation {
  std::uint64_t block_num = 0;
  std::uint32_t tx_index = 0;
};

/// One historical modification of a key.
struct KeyModification {
  std::uint64_t block_num = 0;
  std::uint32_t tx_index = 0;
  std::string tx_id;
  bool is_delete = false;
  proto::Bytes value;
};

class BlockStore {
 public:
  /// Appends a block with its per-transaction validation codes (the
  /// committer fills the metadata; storing the codes beside the shared
  /// immutable block avoids deep-copying it on every peer). The caller
  /// (Blockchain) is responsible for chain integrity; the store only
  /// indexes.
  void Append(proto::BlockPtr block,
              std::vector<proto::ValidationCode> codes = {});

  /// Keeps only the newest `keep_blocks` blocks in memory (0 = keep all,
  /// the default). Takes effect on the next Append.
  void SetRetention(std::uint64_t keep_blocks) { keep_blocks_ = keep_blocks; }

  /// Number of blocks appended ever (== next block number). Pruned blocks
  /// still count: height is chain position, not residency.
  [[nodiscard]] std::uint64_t Height() const {
    return first_block_num_ + blocks_.size();
  }

  /// Oldest block number still resident (0 until pruning starts).
  [[nodiscard]] std::uint64_t FirstBlockNumber() const {
    return first_block_num_;
  }

  /// Blocks currently resident in memory.
  [[nodiscard]] std::size_t ResidentBlocks() const { return blocks_.size(); }

  /// Block by number, or nullptr if out of range or pruned.
  [[nodiscard]] proto::BlockPtr GetBlock(std::uint64_t number) const;

  [[nodiscard]] proto::BlockPtr LastBlock() const;

  /// True if a resident block holds a transaction with this id (valid or
  /// not — Fabric records invalid transactions too and rejects id reuse).
  [[nodiscard]] bool HasTransaction(std::string_view tx_id) const;

  /// The newest resident occurrence of a tx id: a resubmitted duplicate
  /// shadows the original, so the id stays visible until the last block
  /// holding it is pruned.
  [[nodiscard]] std::optional<TxLocation> FindTransaction(
      std::string_view tx_id) const;

  /// Validation codes recorded when block `number` was committed (empty for
  /// blocks appended without codes, e.g. on the orderer side, or pruned).
  [[nodiscard]] const std::vector<proto::ValidationCode>& CodesFor(
      std::uint64_t number) const;

  /// Fabric's GetHistoryForKey over the resident blocks: the writes and
  /// deletes of `key` in namespace `ns` by valid transactions (empty codes
  /// count as valid), oldest first.
  [[nodiscard]] std::vector<KeyModification> HistoryFor(
      std::string_view ns, std::string_view key) const;

  /// Total transactions appended ever (pruned blocks included).
  [[nodiscard]] std::uint64_t TxCount() const { return total_txs_; }

  /// Total serialized bytes appended ever (storage-size accounting; not
  /// reduced by pruning — it models cumulative disk writes).
  [[nodiscard]] std::uint64_t StoredBytes() const { return stored_bytes_; }

 private:
  struct Slot {
    static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};
    std::size_t hash = 0;
    std::uint64_t block_num = kEmpty;  // kEmpty = free slot
    std::uint32_t tx_index = 0;
  };

  void PruneFront();
  /// Slot indexing `tx_id`, or the free slot that ends its probe chain.
  [[nodiscard]] std::size_t SlotOf(std::string_view tx_id,
                                   std::size_t hash) const;
  void IndexTransaction(std::string_view tx_id, TxLocation loc);
  void EraseSlot(std::size_t hole);
  void GrowIndex();

  std::deque<proto::BlockPtr> blocks_;
  std::deque<std::vector<proto::ValidationCode>> codes_;
  // Every slot points at a transaction of a resident block; a block's slots
  // are erased before it is popped.
  std::vector<Slot> tx_slots_;  // power-of-two size, at most half full
  std::size_t tx_indexed_ = 0;
  std::uint64_t first_block_num_ = 0;
  std::uint64_t keep_blocks_ = 0;  // 0 = unbounded
  std::uint64_t total_txs_ = 0;
  std::uint64_t stored_bytes_ = 0;
};

}  // namespace fabricsim::ledger
