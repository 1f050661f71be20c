#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <iterator>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "crypto/ca.h"
#include "ledger/block_store.h"
#include "ledger/blockchain.h"
#include "ledger/mvcc.h"
#include "ledger/state_db.h"

namespace fabricsim::ledger {
namespace {

using proto::Bytes;
using proto::KeyVersion;
using proto::ToBytes;
using proto::ValidationCode;

TEST(StateDb, GetMissingKeyReturnsNullopt) {
  StateDb db;
  EXPECT_FALSE(db.Get("cc", "nope").has_value());
  EXPECT_FALSE(db.GetVersion("cc", "nope").has_value());
}

TEST(StateDb, PutThenGet) {
  StateDb db;
  db.Put("cc", "k", ToBytes("v"), KeyVersion{2, 7});
  const auto v = db.Get("cc", "k");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(proto::ToString(v->value), "v");
  EXPECT_EQ(v->version, (KeyVersion{2, 7}));
  EXPECT_EQ(db.KeyCount(), 1u);
}

TEST(StateDb, NamespacesAreIsolated) {
  StateDb db;
  db.Put("cc1", "k", ToBytes("a"), KeyVersion{1, 0});
  db.Put("cc2", "k", ToBytes("b"), KeyVersion{1, 1});
  EXPECT_EQ(proto::ToString(db.Get("cc1", "k")->value), "a");
  EXPECT_EQ(proto::ToString(db.Get("cc2", "k")->value), "b");
}

TEST(StateDb, CompositeKeyUnambiguous) {
  // ("a", "b\0c") must not collide with ("a\0b", "c").
  StateDb db;
  db.Put("a", std::string("b\0c", 3), ToBytes("1"), KeyVersion{1, 0});
  EXPECT_FALSE(db.Get(std::string("a\0b", 3), "c").has_value());
}

TEST(StateDb, DeleteRemovesKey) {
  StateDb db;
  db.Put("cc", "k", ToBytes("v"), KeyVersion{1, 0});
  db.Delete("cc", "k");
  EXPECT_FALSE(db.Get("cc", "k").has_value());
  EXPECT_EQ(db.KeyCount(), 0u);
}

TEST(StateDb, ApplyRwSetWritesAndDeletes) {
  StateDb db;
  db.Put("cc", "gone", ToBytes("x"), KeyVersion{1, 0});
  proto::RwSetBuilder b("cc");
  b.AddWrite("k1", ToBytes("v1"));
  b.AddDelete("gone");
  db.ApplyRwSet(std::move(b).Build(), KeyVersion{5, 3});
  EXPECT_EQ(db.Get("cc", "k1")->version, (KeyVersion{5, 3}));
  EXPECT_FALSE(db.Get("cc", "gone").has_value());
}

// ---------------------------------------------------------------- helpers

proto::TransactionEnvelope TxRW(
    const std::string& tx_id,
    std::vector<std::pair<std::string, std::optional<KeyVersion>>> reads,
    std::vector<std::string> writes) {
  proto::TransactionEnvelope env;
  env.channel_id = "ch";
  env.tx_id = tx_id;
  env.chaincode_id = "cc";
  proto::NsReadWriteSet ns;
  ns.ns = "cc";
  for (auto& [k, ver] : reads) ns.reads.push_back(proto::KVRead{k, ver});
  for (auto& k : writes) {
    ns.writes.push_back(proto::KVWrite{k, ToBytes("v"), false});
  }
  env.rwset.ns_rwsets.push_back(std::move(ns));
  return env;
}

proto::BlockPtr MakeBlock(std::uint64_t num, const crypto::Digest* prev,
                          std::vector<proto::TransactionEnvelope> txs) {
  return std::make_shared<proto::Block>(proto::Block::Make(num, prev, txs));
}

// ------------------------------------------------------------------- MVCC

TEST(Mvcc, FreshKeyReadOfNulloptIsValid) {
  StateDb db;
  auto block = MakeBlock(0, nullptr, {TxRW("t1", {{"k", std::nullopt}}, {"k"})});
  const auto result = MvccValidator::Validate(*block, db);
  EXPECT_EQ(result.codes[0], ValidationCode::kValid);
  EXPECT_EQ(result.valid_count, 1u);
}

TEST(Mvcc, StaleReadVersionConflicts) {
  StateDb db;
  db.Put("cc", "k", ToBytes("v"), KeyVersion{3, 0});
  auto block =
      MakeBlock(4, nullptr, {TxRW("t1", {{"k", KeyVersion{2, 0}}}, {"k"})});
  const auto result = MvccValidator::Validate(*block, db);
  EXPECT_EQ(result.codes[0], ValidationCode::kMvccReadConflict);
  EXPECT_EQ(result.conflict_count, 1u);
}

TEST(Mvcc, MatchingReadVersionIsValid) {
  StateDb db;
  db.Put("cc", "k", ToBytes("v"), KeyVersion{3, 1});
  auto block =
      MakeBlock(4, nullptr, {TxRW("t1", {{"k", KeyVersion{3, 1}}}, {})});
  EXPECT_EQ(MvccValidator::Validate(*block, db).codes[0],
            ValidationCode::kValid);
}

TEST(Mvcc, ReadOfMissingKeyThatExistsConflicts) {
  StateDb db;
  db.Put("cc", "k", ToBytes("v"), KeyVersion{1, 0});
  auto block = MakeBlock(2, nullptr, {TxRW("t1", {{"k", std::nullopt}}, {})});
  EXPECT_EQ(MvccValidator::Validate(*block, db).codes[0],
            ValidationCode::kMvccReadConflict);
}

TEST(Mvcc, IntraBlockWriteConflictsLaterRead) {
  // t1 writes k; t2 read k at the pre-block version -> conflict (Fabric's
  // in-block pending view).
  StateDb db;
  db.Put("cc", "k", ToBytes("v"), KeyVersion{1, 0});
  auto block = MakeBlock(
      2, nullptr,
      {TxRW("t1", {{"k", KeyVersion{1, 0}}}, {"k"}),
       TxRW("t2", {{"k", KeyVersion{1, 0}}}, {"k"})});
  const auto result = MvccValidator::Validate(*block, db);
  EXPECT_EQ(result.codes[0], ValidationCode::kValid);
  EXPECT_EQ(result.codes[1], ValidationCode::kMvccReadConflict);
}

TEST(Mvcc, InvalidTxDoesNotPoisonPendingView) {
  // t1 is pre-flagged invalid (VSCC); its write must NOT enter the pending
  // view, so t2's read at the committed version stays valid.
  StateDb db;
  db.Put("cc", "k", ToBytes("v"), KeyVersion{1, 0});
  auto block = MakeBlock(
      2, nullptr,
      {TxRW("t1", {}, {"k"}), TxRW("t2", {{"k", KeyVersion{1, 0}}}, {})});
  std::vector<ValidationCode> pre = {ValidationCode::kBadSignature,
                                     ValidationCode::kValid};
  const auto result = MvccValidator::Validate(*block, db, &pre);
  EXPECT_EQ(result.codes[0], ValidationCode::kBadSignature);
  EXPECT_EQ(result.codes[1], ValidationCode::kValid);
}

TEST(Mvcc, IndependentKeysDoNotConflict) {
  StateDb db;
  auto block = MakeBlock(0, nullptr,
                         {TxRW("t1", {{"a", std::nullopt}}, {"a"}),
                          TxRW("t2", {{"b", std::nullopt}}, {"b"})});
  const auto result = MvccValidator::Validate(*block, db);
  EXPECT_EQ(result.valid_count, 2u);
}

TEST(Mvcc, CommitAppliesOnlyValidWrites) {
  StateDb db;
  auto block = MakeBlock(0, nullptr,
                         {TxRW("t1", {}, {"a"}), TxRW("t2", {}, {"b"})});
  std::vector<ValidationCode> codes = {ValidationCode::kValid,
                                       ValidationCode::kMvccReadConflict};
  MvccValidator::Commit(*block, codes, db);
  EXPECT_TRUE(db.Get("cc", "a").has_value());
  EXPECT_FALSE(db.Get("cc", "b").has_value());
  EXPECT_EQ(db.Get("cc", "a")->version, (KeyVersion{0, 0}));
  EXPECT_EQ(db.Height(), 1u);
}

TEST(Mvcc, BlindWritesNeverConflict) {
  StateDb db;
  db.Put("cc", "k", ToBytes("v"), KeyVersion{9, 9});
  auto block = MakeBlock(10, nullptr,
                         {TxRW("t1", {}, {"k"}), TxRW("t2", {}, {"k"})});
  const auto result = MvccValidator::Validate(*block, db);
  EXPECT_EQ(result.valid_count, 2u);
}

TEST(Mvcc, DeleteInBlockMakesLaterNulloptReadValid) {
  StateDb db;
  db.Put("cc", "k", ToBytes("v"), KeyVersion{1, 0});
  proto::TransactionEnvelope del = TxRW("t1", {}, {});
  del.rwset.ns_rwsets[0].writes.push_back(proto::KVWrite{"k", {}, true});
  auto block = MakeBlock(2, nullptr,
                         {del, TxRW("t2", {{"k", std::nullopt}}, {})});
  const auto result = MvccValidator::Validate(*block, db);
  EXPECT_EQ(result.codes[0], ValidationCode::kValid);
  EXPECT_EQ(result.codes[1], ValidationCode::kValid);
}

// ------------------------------------------------------------- BlockStore

TEST(BlockStore, AppendAndLookup) {
  BlockStore store;
  auto b0 = MakeBlock(0, nullptr, {TxRW("t1", {}, {"a"})});
  store.Append(b0, {ValidationCode::kValid});
  EXPECT_EQ(store.Height(), 1u);
  EXPECT_EQ(store.GetBlock(0), b0);
  EXPECT_EQ(store.GetBlock(1), nullptr);
  EXPECT_TRUE(store.HasTransaction("t1"));
  EXPECT_FALSE(store.HasTransaction("t2"));
  const auto loc = store.FindTransaction("t1");
  ASSERT_TRUE(loc.has_value());
  EXPECT_EQ(loc->block_num, 0u);
  EXPECT_EQ(loc->tx_index, 0u);
  ASSERT_EQ(store.CodesFor(0).size(), 1u);
  EXPECT_EQ(store.CodesFor(0)[0], ValidationCode::kValid);
  EXPECT_GT(store.StoredBytes(), 0u);
}

// ------------------------------------------------------------- Blockchain

TEST(Blockchain, AppendsLinkedBlocks) {
  Blockchain chain;
  auto b0 = MakeBlock(0, nullptr, {TxRW("t1", {}, {"a"})});
  EXPECT_TRUE(chain.Append(b0));
  const auto tip = chain.TipHash();
  auto b1 = MakeBlock(1, &tip, {TxRW("t2", {}, {"b"})});
  EXPECT_TRUE(chain.Append(b1));
  EXPECT_EQ(chain.Height(), 2u);
  EXPECT_TRUE(chain.Audit().ok);
}

TEST(Blockchain, RejectsWrongNumber) {
  Blockchain chain;
  auto b5 = MakeBlock(5, nullptr, {});
  EXPECT_FALSE(chain.Append(b5));
  EXPECT_EQ(chain.Height(), 0u);
}

TEST(Blockchain, RejectsWrongPrevHash) {
  Blockchain chain;
  EXPECT_TRUE(chain.Append(MakeBlock(0, nullptr, {})));
  crypto::Digest wrong{};
  wrong[0] = 0xAA;
  EXPECT_FALSE(chain.Append(MakeBlock(1, &wrong, {})));
}

TEST(Blockchain, RejectsTamperedDataHash) {
  Blockchain chain;
  auto block = std::make_shared<proto::Block>(
      proto::Block::Make(0, nullptr, {TxRW("t1", {}, {"a"})}));
  block->transactions[0].tx_id = "tampered";
  block->transactions[0].InvalidateCaches();
  std::string reason;
  EXPECT_FALSE(chain.ValidateLinkage(*block, &reason));
  EXPECT_EQ(reason, "data-hash mismatch");
}

TEST(Blockchain, AuditDetectsDeepTampering) {
  Blockchain chain;
  auto b0 = std::make_shared<proto::Block>(
      proto::Block::Make(0, nullptr, {TxRW("t1", {}, {"a"})}));
  chain.Append(b0);
  const auto tip = chain.TipHash();
  chain.Append(MakeBlock(1, &tip, {TxRW("t2", {}, {"b"})}));
  ASSERT_TRUE(chain.Audit().ok);

  // Tamper with the stored (shared) block 0 in place.
  b0->transactions[0].rwset.ns_rwsets[0].writes[0].key = "evil";
  b0->InvalidateCaches();
  const auto audit = chain.Audit();
  EXPECT_FALSE(audit.ok);
  EXPECT_EQ(audit.bad_block, 0u);
}

// ----------------------------------------------- BlockStore key history

TEST(BlockStore, HistoryTracksValidWritesOnly) {
  BlockStore store;
  store.Append(MakeBlock(0, nullptr,
                         {TxRW("t1", {}, {"k"}), TxRW("t2", {}, {"k"})}),
               {ValidationCode::kValid, ValidationCode::kMvccReadConflict});
  const auto hist = store.HistoryFor("cc", "k");
  ASSERT_EQ(hist.size(), 1u);
  EXPECT_EQ(hist[0].tx_id, "t1");
  EXPECT_EQ(hist[0].block_num, 0u);
  EXPECT_EQ(hist[0].tx_index, 0u);
  EXPECT_FALSE(hist[0].is_delete);
  EXPECT_EQ(proto::ToString(hist[0].value), "v");
}

TEST(BlockStore, HistoryChronologicalAcrossBlocks) {
  BlockStore store;
  store.Append(MakeBlock(0, nullptr, {TxRW("t1", {}, {"k"})}),
               {ValidationCode::kValid});
  store.Append(MakeBlock(1, nullptr, {TxRW("t2", {}, {"k"})}),
               {ValidationCode::kValid});
  const auto hist = store.HistoryFor("cc", "k");
  ASSERT_EQ(hist.size(), 2u);
  EXPECT_EQ(hist[0].tx_id, "t1");
  EXPECT_EQ(hist[1].tx_id, "t2");
  EXPECT_EQ(hist[1].block_num, 1u);
}

TEST(BlockStore, HistoryUnknownKeyEmpty) {
  BlockStore store;
  EXPECT_TRUE(store.HistoryFor("cc", "never").empty());
  store.Append(MakeBlock(0, nullptr, {TxRW("t1", {}, {"k"})}));
  EXPECT_TRUE(store.HistoryFor("cc", "never").empty());
  EXPECT_TRUE(store.HistoryFor("other", "k").empty());
}

TEST(BlockStore, HistoryRecordsDeletesAndTreatsEmptyCodesAsValid) {
  BlockStore store;
  proto::TransactionEnvelope del = TxRW("t2", {}, {});
  del.rwset.ns_rwsets[0].writes.push_back(proto::KVWrite{"k", {}, true});
  // Appended without codes, as the orderer side does: every tx counts.
  store.Append(MakeBlock(0, nullptr, {TxRW("t1", {}, {"k"}), del}));
  const auto hist = store.HistoryFor("cc", "k");
  ASSERT_EQ(hist.size(), 2u);
  EXPECT_FALSE(hist[0].is_delete);
  EXPECT_TRUE(hist[1].is_delete);
  EXPECT_EQ(hist[1].tx_id, "t2");
  EXPECT_EQ(hist[1].tx_index, 1u);
}

TEST(BlockStore, HistoryLimitedToRetainedBlocks) {
  BlockStore store;
  store.SetRetention(2);
  for (std::uint64_t n = 0; n < 4; ++n) {
    const std::string id = "t" + std::to_string(n);
    store.Append(MakeBlock(n, nullptr, {TxRW(id, {}, {"k"})}),
                 {ValidationCode::kValid});
  }
  const auto hist = store.HistoryFor("cc", "k");
  ASSERT_EQ(hist.size(), 2u);
  EXPECT_EQ(hist[0].tx_id, "t2");
  EXPECT_EQ(hist[0].block_num, 2u);
  EXPECT_EQ(hist[1].tx_id, "t3");
}

// ------------------------------------------------- BlockStore retention

TEST(BlockStore, RetentionPrunesOldestBlocks) {
  BlockStore store;
  store.SetRetention(2);
  std::vector<proto::BlockPtr> blocks;
  for (std::uint64_t n = 0; n < 3; ++n) {
    blocks.push_back(
        MakeBlock(n, nullptr, {TxRW("t" + std::to_string(n), {}, {"a"})}));
    store.Append(blocks.back(), {ValidationCode::kValid});
  }
  EXPECT_EQ(store.Height(), 3u);
  EXPECT_EQ(store.FirstBlockNumber(), 1u);
  EXPECT_EQ(store.ResidentBlocks(), 2u);
  EXPECT_EQ(store.TxCount(), 3u);
  EXPECT_EQ(store.GetBlock(0), nullptr);
  EXPECT_TRUE(store.CodesFor(0).empty());
  EXPECT_EQ(store.GetBlock(1), blocks[1]);
  EXPECT_EQ(store.CodesFor(2).size(), 1u);
  EXPECT_EQ(store.LastBlock(), blocks[2]);
  EXPECT_FALSE(store.HasTransaction("t0"));
  EXPECT_FALSE(store.FindTransaction("t0").has_value());
  const auto loc = store.FindTransaction("t2");
  ASSERT_TRUE(loc.has_value());
  EXPECT_EQ(loc->block_num, 2u);
}

TEST(BlockStore, RepeatedTxIdStaysVisibleWhileAnyHoldingBlockIsResident) {
  BlockStore store;
  store.SetRetention(2);
  store.Append(MakeBlock(0, nullptr, {TxRW("X", {}, {"a"})}),
               {ValidationCode::kValid});
  store.Append(MakeBlock(1, nullptr, {TxRW("X", {}, {"a"})}),
               {ValidationCode::kDuplicateTxId});
  store.Append(MakeBlock(2, nullptr, {TxRW("Y", {}, {"a"})}),
               {ValidationCode::kValid});
  // Block 0 is pruned, but block 1 still holds X: a third submission must
  // still be screened as a duplicate.
  EXPECT_TRUE(store.HasTransaction("X"));
  const auto loc = store.FindTransaction("X");
  ASSERT_TRUE(loc.has_value());
  EXPECT_EQ(loc->block_num, 1u);

  store.Append(MakeBlock(3, nullptr, {TxRW("Z", {}, {"a"})}),
               {ValidationCode::kValid});
  EXPECT_FALSE(store.HasTransaction("X"));
  EXPECT_TRUE(store.HasTransaction("Y"));
}

// ------------------------------------------- differential (reference) runs

// StateDb against a std::map reference over three namespaces. The key space
// (about 20k keys) forces many table growths, and with inserts and deletes
// interleaved most deletes land inside a probe chain, exercising the
// backward shift and the swap-remove renumbering. Values mix inline
// (short) and heap-sized strings.
TEST(StateDbDifferential, MatchesOrderedMapReference) {
  const std::vector<std::string> spaces = {"token", "smallbank", "kvwrite"};
  constexpr int kKeysPerSpace = 6800;
  auto key_name = [](int k) {
    return k % 5 == 0 ? "a-deliberately-long-key-" + std::to_string(k)
                      : "k" + std::to_string(k);
  };
  using Ref = std::map<std::string, std::pair<std::string, KeyVersion>>;
  std::vector<Ref> ref(spaces.size());
  StateDb db;
  std::mt19937_64 rng(20260418);

  auto check_space = [&](std::size_t s) {
    const auto all = db.GetRange(spaces[s], "", "");
    ASSERT_EQ(all.size(), ref[s].size());
    auto it = ref[s].begin();
    for (const auto& [key, vv] : all) {
      ASSERT_EQ(key, it->first);
      ASSERT_EQ(proto::ToString(vv.value), it->second.first);
      ASSERT_EQ(vv.version, it->second.second);
      ++it;
    }
  };
  auto ref_keys = [&] {
    std::size_t n = 0;
    for (const Ref& r : ref) n += r.size();
    return n;
  };

  std::size_t max_keys = 0;
  for (std::uint32_t op = 0; op < 160'000; ++op) {
    const std::size_t s = rng() % spaces.size();
    const std::string key =
        key_name(static_cast<int>(rng() % kKeysPerSpace));
    // Grow for the first half, shrink for the rest, so the run crosses
    // every table growth and then deletes through full tables.
    const int delete_pct = op < 80'000 ? 25 : 70;
    const int roll = static_cast<int>(rng() % 100);
    if (roll < delete_pct) {
      db.Delete(spaces[s], key);
      ref[s].erase(key);
    } else if (roll < 90) {
      const std::string value =
          rng() % 2 == 0 ? std::to_string(rng() % 1000)
                         : std::string(20 + rng() % 40, 'v') + key;
      const KeyVersion version{op, static_cast<std::uint32_t>(s)};
      db.Put(spaces[s], key, proto::ToBytes(value), version);
      ref[s][key] = {value, version};
    } else if (roll < 99) {
      // Point reads, including misses.
      const auto got = db.Get(spaces[s], key);
      const auto want = ref[s].find(key);
      ASSERT_EQ(got.has_value(), want != ref[s].end()) << key;
      ASSERT_EQ(db.GetVersion(spaces[s], key).has_value(), got.has_value());
      if (got) {
        ASSERT_EQ(proto::ToString(got->value), want->second.first);
        ASSERT_EQ(got->version, want->second.second);
        ASSERT_EQ(*db.GetVersion(spaces[s], key), want->second.second);
      }
    } else {
      // A short range scan from `key` (rebuilds the index if stale).
      auto lo = ref[s].lower_bound(key);
      auto hi = lo;
      for (int step = 0; step < 8 && hi != ref[s].end(); ++step) ++hi;
      const std::string end = hi == ref[s].end() ? "" : hi->first;
      const auto range = db.GetRange(spaces[s], key, end);
      ASSERT_EQ(range.size(),
                static_cast<std::size_t>(std::distance(lo, hi)));
      for (const auto& [k, vv] : range) {
        ASSERT_EQ(k, lo->first);
        ASSERT_EQ(vv.version, lo->second.second);
        ++lo;
      }
    }
    ASSERT_EQ(db.KeyCount(), ref_keys());
    max_keys = std::max(max_keys, ref_keys());
    if (op % 20'000 == 19'999) {
      for (std::size_t c = 0; c < spaces.size(); ++c) check_space(c);
    }
  }
  EXPECT_GT(max_keys, 12'000u);  // several growths per namespace
  EXPECT_LT(ref_keys(), max_keys / 2);
  for (std::size_t c = 0; c < spaces.size(); ++c) check_space(c);
  EXPECT_FALSE(db.Get("absent-namespace", "k1").has_value());
}

// BlockStore's tx-id index under retention against a reference map from id
// to its newest resident location. Ids repeat within and across blocks;
// pruning removes an id only if its newest occurrence left the window.
TEST(BlockStoreDifferential, RetainedIndexMatchesNewestResidentLocation) {
  constexpr std::uint64_t kRetain = 64;
  constexpr int kIdPool = 5000;
  BlockStore store;
  store.SetRetention(kRetain);
  std::map<std::string, TxLocation> ref;
  std::deque<std::vector<std::string>> resident;  // ids per resident block
  std::mt19937_64 rng(7);

  auto expect_matches = [&](const std::string& id) {
    const auto got = store.FindTransaction(id);
    const auto want = ref.find(id);
    ASSERT_EQ(got.has_value(), want != ref.end()) << id;
    ASSERT_EQ(store.HasTransaction(id), got.has_value()) << id;
    if (got) {
      ASSERT_EQ(got->block_num, want->second.block_num) << id;
      ASSERT_EQ(got->tx_index, want->second.tx_index) << id;
    }
  };

  std::size_t max_indexed = 0;
  for (std::uint64_t n = 0; n < 600; ++n) {
    std::vector<proto::TransactionEnvelope> txs;
    std::vector<std::string> ids;
    const std::size_t count = 1 + rng() % 30;
    for (std::size_t i = 0; i < count; ++i) {
      // Occasionally repeat an id of this same block.
      ids.push_back(i > 0 && rng() % 10 == 0
                        ? ids[rng() % i]
                        : "tx" + std::to_string(rng() % kIdPool));
      txs.push_back(TxRW(ids.back(), {}, {"a"}));
      ref[ids.back()] = {n, static_cast<std::uint32_t>(i)};
    }
    store.Append(MakeBlock(n, nullptr, std::move(txs)));
    resident.push_back(ids);
    if (resident.size() > kRetain) {
      const std::uint64_t pruned = n - kRetain;
      for (const std::string& id : resident.front()) {
        auto it = ref.find(id);
        if (it != ref.end() && it->second.block_num == pruned) ref.erase(it);
      }
      resident.pop_front();
    }
    max_indexed = std::max(max_indexed, ref.size());
    ASSERT_EQ(store.FirstBlockNumber(), n + 1 - resident.size());
    for (const std::string& id : ids) expect_matches(id);
    if (n % 50 == 49) {
      for (int k = 0; k < kIdPool; ++k) {
        expect_matches("tx" + std::to_string(k));
      }
    }
  }
  EXPECT_GT(max_indexed, 600u);  // the index grew several times
}

}  // namespace
}  // namespace fabricsim::ledger
