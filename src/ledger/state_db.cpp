#include "ledger/state_db.h"

#include <algorithm>

namespace fabricsim::ledger {

const VersionedValue* StateDb::Find(std::string_view ns,
                                    std::string_view key) const {
  auto space = namespaces_.find(ns);
  if (space == namespaces_.end()) return nullptr;
  auto it = space->second.keys.find(key);
  return it == space->second.keys.end() ? nullptr : &it->second;
}

std::optional<VersionedValue> StateDb::Get(std::string_view ns,
                                           std::string_view key) const {
  const VersionedValue* vv = Find(ns, key);
  if (vv == nullptr) return std::nullopt;
  return *vv;
}

std::optional<proto::KeyVersion> StateDb::GetVersion(
    std::string_view ns, std::string_view key) const {
  const VersionedValue* vv = Find(ns, key);
  if (vv == nullptr) return std::nullopt;
  return vv->version;
}

std::size_t StateDb::KeyCount() const {
  std::size_t n = 0;
  for (const auto& [ns, space] : namespaces_) n += space.keys.size();
  return n;
}

void StateDb::PutIn(Namespace& space, const std::string& key,
                    proto::Bytes value, proto::KeyVersion version) {
  auto [it, inserted] = space.keys.try_emplace(key, std::move(value), version);
  if (!inserted) {
    // Overwrite: the key set is unchanged, the range index stays warm (it
    // holds a stable pointer to this node).
    it->second.value = std::move(value);
    it->second.version = version;
  } else {
    space.sorted_valid = false;
  }
}

void StateDb::DeleteIn(Namespace& space, std::string_view key) {
  auto it = space.keys.find(key);
  if (it == space.keys.end()) return;
  space.keys.erase(it);
  space.sorted_valid = false;
}

void StateDb::Put(const std::string& ns, const std::string& key,
                  proto::Bytes value, proto::KeyVersion version) {
  PutIn(namespaces_[ns], key, std::move(value), version);
}

void StateDb::Delete(std::string_view ns, std::string_view key) {
  auto space = namespaces_.find(ns);
  if (space != namespaces_.end()) DeleteIn(space->second, key);
}

std::vector<std::pair<std::string, VersionedValue>> StateDb::GetRange(
    std::string_view ns, std::string_view start_key,
    std::string_view end_key) const {
  std::vector<std::pair<std::string, VersionedValue>> out;
  auto found = namespaces_.find(ns);
  if (found == namespaces_.end()) return out;
  const Namespace& space = found->second;
  if (!space.sorted_valid) {
    space.sorted.clear();
    for (const auto& entry : space.keys) space.sorted.push_back(&entry);
    std::sort(space.sorted.begin(), space.sorted.end(),
              [](const auto* a, const auto* b) { return a->first < b->first; });
    space.sorted_valid = true;
  }
  auto it = std::lower_bound(
      space.sorted.begin(), space.sorted.end(), start_key,
      [](const auto* entry, std::string_view k) { return entry->first < k; });
  for (; it != space.sorted.end(); ++it) {
    if (!end_key.empty() && (*it)->first >= end_key) break;
    out.emplace_back((*it)->first, (*it)->second);
  }
  return out;
}

void StateDb::ApplyRwSet(const proto::TxReadWriteSet& rwset,
                         proto::KeyVersion version) {
  for (const auto& ns : rwset.ns_rwsets) {
    Namespace& space = namespaces_[ns.ns];
    for (const auto& w : ns.writes) {
      if (w.is_delete) {
        DeleteIn(space, w.key);
      } else {
        PutIn(space, w.key, w.value, version);
      }
    }
  }
}

void StateDb::ApplyBatch(
    const std::vector<std::pair<const proto::TxReadWriteSet*,
                                proto::KeyVersion>>& batch) {
  // One batched write: later entries overwrite earlier ones exactly as the
  // per-tx path would (LevelDB WriteBatch semantics).
  for (const auto& [rwset, version] : batch) {
    ApplyRwSet(*rwset, version);
  }
}

}  // namespace fabricsim::ledger
