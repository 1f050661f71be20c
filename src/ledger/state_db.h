// Versioned world-state database (Fabric's LevelDB state database model).
//
// Every key holds a value plus the height-based version (block number,
// tx index) of the transaction that last wrote it. The endorser reads
// versions during simulation; the committer compares them during MVCC
// validation and bumps them at commit.
//
// Storage is flat, per namespace: a dense vector of entries (key, value,
// version, stored hash) and an open-addressing, linear-probing index of
// entry numbers. Keys and values are std::strings, so the short ones every
// workload writes (a 1-byte kvwrite value, a 7-byte balance, "chk:acct42")
// sit in the SSO buffer and an insert, overwrite or teardown allocates
// nothing of its own. Lookups take string_views and build no key string.
// Delete swap-removes the entry and backward-shifts the probe chain, so the
// table holds no tombstones. Ordered range scans (GetStateByRange) use a
// per-namespace vector of entry numbers sorted by key, built lazily on the
// first scan and invalidated only when the key *set* changes (new key,
// delete); overwrites keep it warm.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "proto/bytes.h"
#include "proto/rwset.h"

namespace fabricsim::ledger {

/// A value with its version, as stored.
struct VersionedValue {
  proto::Bytes value;
  proto::KeyVersion version;
};

/// In-memory versioned KV store, namespaced by chaincode.
class StateDb {
 public:
  /// Reads a key. Returns nullopt if absent (or deleted).
  [[nodiscard]] std::optional<VersionedValue> Get(std::string_view ns,
                                                  std::string_view key) const;

  /// Version-only read (what MVCC needs; cheaper than copying the value).
  [[nodiscard]] std::optional<proto::KeyVersion> GetVersion(
      std::string_view ns, std::string_view key) const;

  /// Writes a key at `version`.
  void Put(const std::string& ns, const std::string& key, proto::Bytes value,
           proto::KeyVersion version);

  /// Deletes a key.
  void Delete(std::string_view ns, std::string_view key);

  /// Applies all writes of one transaction's rwset at `version`.
  void ApplyRwSet(const proto::TxReadWriteSet& rwset,
                  proto::KeyVersion version);

  /// Ordered range scan within a namespace: keys in [start_key, end_key)
  /// (an empty end_key means "to the end of the namespace"), with values
  /// and versions, in key order — Fabric's GetStateByRange.
  [[nodiscard]] std::vector<std::pair<std::string, VersionedValue>> GetRange(
      std::string_view ns, std::string_view start_key,
      std::string_view end_key) const;

  /// Number of live keys across all namespaces.
  [[nodiscard]] std::size_t KeyCount() const;

  /// Height of the last committed block (for recovery checks); updated by
  /// the committer via SetHeight.
  [[nodiscard]] std::uint64_t Height() const { return height_; }
  void SetHeight(std::uint64_t h) { height_ = h; }

 private:
  struct Entry {
    std::string key;
    std::string value;  // proto::Bytes content; SSO keeps short ones inline
    proto::KeyVersion version;
    std::size_t hash = 0;
  };

  /// One chaincode namespace: entries plus their hash index.
  class Namespace {
   public:
    explicit Namespace(std::string name) : name_(std::move(name)) {}

    [[nodiscard]] const std::string& Name() const { return name_; }
    [[nodiscard]] std::size_t Size() const { return entries_.size(); }
    [[nodiscard]] const Entry* Find(std::string_view key) const;
    void Put(std::string_view key, const proto::Bytes& value,
             proto::KeyVersion version);
    void Delete(std::string_view key);
    /// Entry numbers in key order (rebuilt after a key-set change).
    [[nodiscard]] const std::vector<std::uint32_t>& Sorted() const;
    [[nodiscard]] const Entry& At(std::uint32_t e) const {
      return entries_[e];
    }

   private:
    static constexpr std::uint32_t kEmpty = ~std::uint32_t{0};

    /// Slot holding `key`'s entry number, or the empty slot that ends its
    /// probe chain.
    [[nodiscard]] std::size_t SlotOf(std::string_view key,
                                     std::size_t hash) const;
    /// Slot holding entry number `e` (which must be indexed).
    [[nodiscard]] std::size_t SlotOfEntry(std::uint32_t e) const;
    void Grow();

    std::string name_;
    std::vector<Entry> entries_;
    std::vector<std::uint32_t> slots_;  // power-of-two size, kEmpty = free
    mutable std::vector<std::uint32_t> sorted_;
    mutable bool sorted_valid_ = false;
  };

  [[nodiscard]] const Namespace* FindNamespace(std::string_view ns) const;
  Namespace& NamespaceFor(std::string_view ns);

  // A handful of chaincodes per channel: a linear scan beats any map.
  std::vector<Namespace> namespaces_;
  std::uint64_t height_ = 0;
};

}  // namespace fabricsim::ledger
